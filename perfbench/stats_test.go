package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{n: 3000, p: 99, beyond: 30},
		{n: 2000, p: 99, beyond: 20},
		{n: 1099, p: 99, beyond: 10},
		{n: 1000, p: 99, beyond: 10},
		{n: 999, p: 95, beyond: 49}, // p99 would leave 9 beyond
		{n: 99, p: 75, beyond: 24},
		{n: 66, p: 75, beyond: 16},
		{n: 21, p: 50, beyond: 10},
		{n: 5, p: 50, beyond: 2}, // too few for any rung: the median
	} {
		p, beyond := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%v with %d beyond, want p%v with %d", c.n, p, beyond, c.p, c.beyond)
		}
		if c.n >= 21 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for p, want := range map[float64]time.Duration{50: 50, 75: 75, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(ds, p); got != want*time.Millisecond {
			t.Errorf("p%v = %v, want %v", p, got, want*time.Millisecond)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

func TestEndToEndTail(t *testing.T) {
	var samples []sample
	for i := 1; i <= 1000; i++ {
		samples = append(samples, sample{latency: time.Duration(i) * time.Millisecond, ok: i%100 != 0})
	}
	m, tl := endToEnd(e2eInput{
		setups:   []time.Duration{3 * time.Second, time.Second, 2 * time.Second},
		samples:  samples,
		window:   10 * time.Second,
		cpu:      2 * time.Second,
		sloLimit: 500 * time.Millisecond,
	})
	if tl.Percentile != 99 || tl.Beyond != 10 || tl.Samples != 1000 {
		t.Errorf("tail = %+v, want p99 with 10 of 1000 beyond", tl)
	}
	want := map[string]float64{
		"setup_s":        2,
		"jobs_per_s":     99,  // 990 ok jobs in 10 s
		"job_p50_ms":     500, // failed jobs still count towards latency
		"job_tail_ms":    990,
		"cpu_ms_per_job": 2,
		"ok_ratio":       0.99,
		"slo_ok_ratio":   0.495, // 495 ok jobs at or under 500 ms
	}
	for name, v := range want {
		if got := m[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	for _, name := range endToEndNames {
		if _, ok := m[name]; !ok {
			t.Errorf("end-to-end metric %s not emitted", name)
		}
	}
	if len(m) != len(endToEndNames) {
		t.Errorf("emitted %d end-to-end metrics, the catalogue has %d", len(m), len(endToEndNames))
	}
}

// TestDueTimeLatency checks that a scheduled request's latency runs
// from when it was due, not from when it was sent, and that the
// generator's lag is the gap between the two.
func TestDueTimeLatency(t *testing.T) {
	e := &accdEntry{name: "compile", path: "/v1/compile", want: reply{status: http.StatusUnprocessableEntity, body: []byte("x")}}
	t0 := time.Now()
	reqs := []accdRequest{
		{entry: e, due: t0, sent: t0.Add(5 * time.Millisecond), done: t0.Add(12 * time.Millisecond),
			got: reply{status: http.StatusUnprocessableEntity, body: []byte("x")}},
		{entry: e, due: t0.Add(10 * time.Millisecond), sent: t0.Add(10 * time.Millisecond), done: t0.Add(13 * time.Millisecond),
			got: reply{status: http.StatusTooManyRequests}, verdict: verdict{failed: true}},
	}
	var log strings.Builder
	st := foldAccd(reqs, &log)
	if got := st.samples[0]; got.latency != 12*time.Millisecond || !got.ok {
		t.Errorf("first request: %+v, want ok with 12ms latency", got)
	}
	if got := st.samples[1]; got.latency != 3*time.Millisecond || got.ok || got.wrong {
		t.Errorf("refused request: %+v, want a failure that is not a wrong output", got)
	}
	if st.lag[0] != 5*time.Millisecond || st.lag[1] != 0 {
		t.Errorf("generator lag = %v, want [5ms 0s]", st.lag)
	}
	if st.refused != 1 || !strings.Contains(log.String(), "status 429") {
		t.Errorf("refused = %d, log %q", st.refused, log.String())
	}
}

// TestUnrepeatedReportIsNotAFailure checks that a run response whose
// simulated report differs from the request's usual one is counted as
// unrepeated, apart from the failed and the wrong ones.
func TestUnrepeatedReportIsNotAFailure(t *testing.T) {
	usual, odd := [32]byte{1}, [32]byte{2}
	e := &accdEntry{name: "run", path: "/v1/run", want: reply{status: http.StatusOK}, wantFP: usual}
	t0 := time.Now()
	var reqs []accdRequest
	for _, fp := range [][32]byte{usual, usual, odd} {
		reqs = append(reqs, accdRequest{entry: e, due: t0, sent: t0, done: t0.Add(time.Millisecond),
			got: reply{status: http.StatusOK}, verdict: verdict{fp: fp}})
	}
	var log strings.Builder
	st := foldAccd(reqs, &log)
	o := newOutcome(st.samples, nil, nil, tail{})
	if o.attempted != 3 || o.failed != 0 || o.wrong != 0 || o.unrepeated != 1 {
		t.Errorf("outcome %+v, want 3 attempted, none failed, 1 unrepeated", o)
	}
	if !strings.Contains(log.String(), "1 run: simulated report differs") {
		t.Errorf("log %q does not name the unrepeated report", log.String())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a", Start: 20, End: 50, Parent: 0},  // overlaps its sibling
		{Name: "b", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "c", Start: 25, End: 28, Parent: 2},  // a grandchild
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"job": {Self: 50, Total: 100, Count: 1}, // children cover [10,50] and [90,100]
		"a":   {Self: 47, Total: 50, Count: 2},
		"b":   {Self: 30, Total: 30, Count: 1},
		"c":   {Self: 3, Total: 3, Count: 1},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	if i := r.begin("x", -1, 0); i != -1 {
		t.Errorf("nil recorder begin = %d", i)
	}
	r.end(0)
	if r.record("x", time.Now(), time.Now(), -1, 0) != -1 || r.snapshot() != nil {
		t.Error("nil recorder recorded a span")
	}
}

func TestRatioCarriesBase(t *testing.T) {
	m := metricSet{}
	m.ratio("serve.cache_hit_ratio", 3, 4, "count")
	m.ratio("rt.plan_cache_hit_ratio", 0, 0, "count")
	if m["serve.cache_hit_ratio"].Value != 0.75 || m["serve.cache_hit_ratio.num"].Value != 3 ||
		m["serve.cache_hit_ratio.den"].Value != 4 {
		t.Errorf("ratio 3/4 emitted as %v", m)
	}
	if v := m["rt.plan_cache_hit_ratio"].Value; v != 0 {
		t.Errorf("0/0 = %v, want 0", v)
	}
}

// TestCatalogue checks that every per-layer ratio is listed with its
// base counts, and that BENCHMARK.json names the same metrics with the
// same units as the code emits.
func TestCatalogue(t *testing.T) {
	units := map[string]string{}
	for _, l := range perLayer {
		if _, dup := units[l.name]; dup {
			t.Errorf("per-layer metric %s listed twice", l.name)
		}
		units[l.name] = l.unit
	}
	for name, unit := range units {
		if strings.HasSuffix(name, "_ratio") {
			if unit != "ratio" {
				t.Errorf("%s has unit %s", name, unit)
			}
			for _, base := range []string{name + ".num", name + ".den"} {
				if _, ok := units[base]; !ok {
					t.Errorf("ratio %s is listed without %s", name, base)
				}
			}
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for _, l := range b.PerLayer {
		if units[l.Name] != l.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, code %q", l.Name, l.Unit, units[l.Name])
		}
	}
	m, _ := endToEnd(e2eInput{samples: []sample{{ok: true}}, window: time.Second})
	if len(b.EndToEnd) != len(m) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the code emits %d", len(b.EndToEnd), len(m))
	}
	for _, e := range b.EndToEnd {
		if m[e.Name].Unit != e.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, code %q", e.Name, e.Unit, m[e.Name].Unit)
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []int64{1, 10, 100, 1000}
	for _, c := range []struct {
		counts []int64
		q      float64
		want   float64
	}{
		{[]int64{0, 0, 10, 0, 0}, 0.5, math.Sqrt(1000)}, // halfway through (10,100] on a log scale
		{[]int64{0, 0, 10, 0, 0}, 1, 100},
		{[]int64{0, 5, 0, 5, 0}, 0.99, 100 * math.Pow(10, 0.98)},
		{[]int64{0, 0, 0, 0, 4}, 0.5, 1000}, // overflow: the lower edge
		{[]int64{0, 0, 0, 0, 0}, 0.5, 0},
	} {
		if got := bucketQuantile(bounds, c.counts, c.q); math.Abs(got-c.want) > 1e-9*c.want+1e-12 {
			t.Errorf("q%v of %v = %v, want %v", c.q, c.counts, got, c.want)
		}
	}
}

func TestMode(t *testing.T) {
	if got := mode([]int{2, 1, 1, 2, 3, 1}); got != 1 {
		t.Errorf("mode = %d, want 1", got)
	}
	if got := mode([]int{5, 7}); got != 5 {
		t.Errorf("mode of a tie = %d, want the earliest, 5", got)
	}
}
