package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number with its unit, as printed in the
// result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ms records a host-clock duration in milliseconds.
func (m metricSet) ms(name string, d time.Duration) {
	m.set(name, float64(d)/float64(time.Millisecond), "ms")
}

// simMS records a simulated-clock duration in milliseconds. Simulated
// time is deterministic, so its unit says which clock it is on.
func (m metricSet) simMS(name string, d time.Duration) {
	m.set(name, float64(d)/float64(time.Millisecond), "sim_ms")
}

// ratio records num/den together with its base counts, as name.num
// and name.den, so that a ratio is never read without the numbers it
// was made from. A zero denominator reports a ratio of 0.
func (m metricSet) ratio(name string, num, den float64, baseUnit string) {
	r := 0.0
	if den != 0 {
		r = num / den
	}
	m.set(name, r, "ratio")
	m.set(name+".num", num, baseUnit)
	m.set(name+".den", den, baseUnit)
}

// tailLadder lists the percentiles job_tail_ms may report, lowest
// first. A fixed ladder keeps the reported percentile the same across
// runs whose sample counts differ a little.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie above the tail percentile.
const minBeyond = 10

// rankIndex is the 0-based index of the nearest-rank p-th percentile
// of n sorted samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples above it, and reports how many lie beyond.
// With too few samples for any rung it falls back to the median.
func tailPercentile(n int) (p float64, beyond int) {
	p = tailLadder[0]
	beyond = n - 1 - rankIndex(p, n)
	for _, q := range tailLadder[1:] {
		b := n - 1 - rankIndex(q, n)
		if b < minBeyond {
			break
		}
		p, beyond = q, b
	}
	return p, beyond
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(p, len(sorted))]
}

func sortedCopy(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(ds []time.Duration) time.Duration { return percentile(sortedCopy(ds), 50) }

// sample is one job's outcome as the end-to-end metrics see it.
type sample struct {
	// latency is the job's host time: the layer calls of a batch job,
	// or for a scheduled request the time from when it was due to
	// when its response was read.
	latency time.Duration
	// ok reports that the job completed and passed every check.
	ok bool
	// wrong reports a failed output check: an array, scalar or response
	// that differs from its reference.
	wrong bool
	// unrepeated reports a job that passed its checks but whose
	// simulated report differs from the one most runs of the same job
	// produced. Simulated time is meant to be deterministic, so this is
	// a program defect; it is counted apart from the failures, since
	// whether a race shows in a given run is chance.
	unrepeated bool
}

// tail describes the percentile job_tail_ms reports.
type tail struct {
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"samples_beyond"`
	Samples    int     `json:"samples"`
}

// e2eInput collects what the end-to-end metrics are computed from.
type e2eInput struct {
	setups      []time.Duration
	samples     []sample
	window      time.Duration // host time the jobs/s rate is taken over
	cpu         time.Duration // process CPU time spent on the jobs
	peakRSS     int64         // bytes
	simMakespan time.Duration // sum of Report.Total() over one pass
	sloLimit    time.Duration
}

// endToEnd computes the end-to-end metric set. Failed jobs count as
// attempted and as missing the latency limit; latency percentiles are
// over every attempted job.
func endToEnd(in e2eInput) (metricSet, tail) {
	m := metricSet{}
	n := len(in.samples)
	lat := make([]time.Duration, 0, n)
	ok, inSLO := 0, 0
	for _, s := range in.samples {
		lat = append(lat, s.latency)
		if s.ok {
			ok++
			if s.latency <= in.sloLimit {
				inSLO++
			}
		}
	}
	lat = sortedCopy(lat)
	p, beyond := tailPercentile(n)
	m.set("setup_s", median(in.setups).Seconds(), "s")
	m.set("jobs_per_s", float64(ok)/in.window.Seconds(), "1/s")
	m.ms("job_p50_ms", percentile(lat, 50))
	m.ms("job_tail_ms", percentile(lat, p))
	if n > 0 {
		m.set("cpu_ms_per_job", float64(in.cpu)/float64(time.Millisecond)/float64(n), "ms")
		m.set("ok_ratio", float64(ok)/float64(n), "ratio")
		m.set("slo_ok_ratio", float64(inSLO)/float64(n), "ratio")
	}
	m.set("peak_rss_mb", float64(in.peakRSS)/(1<<20), "MB")
	m.simMS("sim_makespan_ms", in.simMakespan)
	return m, tail{Percentile: p, Beyond: beyond, Samples: n}
}

// bucketQuantile estimates the q-quantile (0..1) of a fixed-bucket
// histogram: counts[i] holds values <= bounds[i], the last slot the
// overflow. Within a bucket it interpolates geometrically, since the
// buckets are decades; the first bucket starts at 1.
func bucketQuantile(bounds, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo := 1.0
			if i > 0 {
				lo = float64(bounds[i-1])
			}
			if i >= len(bounds) {
				return lo // overflow bucket: its lower edge
			}
			hi := float64(bounds[i])
			frac := (target - cum) / float64(c)
			return lo * math.Pow(hi/lo, frac)
		}
		cum += float64(c)
	}
	return float64(bounds[len(bounds)-1])
}
