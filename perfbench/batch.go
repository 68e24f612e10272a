package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"accmulti/internal/analysis"
	"accmulti/internal/apps"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
	"accmulti/internal/translator"
)

// batchJob is one run of a compiled program on a simulated machine,
// with the check its output must pass.
type batchJob struct {
	name  string
	mod   *ir.Module
	input *ir.Bindings // pristine; every run binds a copy
	check func(*ir.Instance) error
	spec  sim.MachineSpec
	opts  rt.Options
}

// batchSetup is what a batch workload builds before measuring.
type batchSetup struct {
	jobs []batchJob
	// kernels and specKernels count the compiled programs' kernels and
	// those the spec compiler accepted.
	kernels, specKernels int
	// sloLimit is the latency limit slo_ok_ratio counts against.
	sloLimit time.Duration
	// pass is the nominal host time of one pass over the jobs; a run of
	// d seconds measures d/pass passes (see passesFor).
	pass time.Duration
}

// compiler runs the front end, translator and vet pass on a source,
// recording a set-up span around each call.
type compiler struct {
	rec *recorder
	set *batchSetup
}

func (c compiler) compile(src string) (*ir.Module, error) {
	t0 := time.Now()
	prog, err := cc.ParseProgram(src)
	t1 := time.Now()
	c.rec.record("cc.ParseProgram", t0, t1, -1, -1)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	mod, err := translator.Translate(prog)
	t2 := time.Now()
	c.rec.record("translator.Translate", t1, t2, -1, -1)
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	// The vet verdict does not gate a batch job (BFS's data-dependent
	// gather is one the verifier rightly refuses to prove); its cost is
	// the compile layer's to report.
	if _, err := analysis.Vet(prog); err != nil {
		return nil, fmt.Errorf("vet: %w", err)
	}
	c.rec.record("analysis.Vet", t2, time.Now(), -1, -1)
	for _, k := range mod.Kernels {
		c.set.kernels++
		if k.Spec != nil {
			c.set.specKernels++
		}
	}
	return mod, nil
}

// generate builds an application input, recording a set-up span.
func generate(rec *recorder, app *apps.App, scale float64, seed int64) (*apps.Input, error) {
	t0 := time.Now()
	in, err := app.Generate(scale, seed)
	rec.record("apps.Generate", t0, time.Now(), -1, -1)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", app.Name, err)
	}
	return in, nil
}

// cloneBindings deep-copies a binding set, so a run cannot change the
// inputs the next run of the same job binds.
func cloneBindings(b *ir.Bindings) *ir.Bindings {
	out := ir.NewBindings()
	for k, v := range b.Scalars {
		out.Scalars[k] = v
	}
	for k, a := range b.Arrays {
		c := &ir.HostArray{Decl: a.Decl}
		if a.F32 != nil {
			c.F32 = append([]float32(nil), a.F32...)
		}
		if a.F64 != nil {
			c.F64 = append([]float64(nil), a.F64...)
		}
		if a.I32 != nil {
			c.I32 = append([]int32(nil), a.I32...)
		}
		out.Arrays[k] = c
	}
	return out
}

// jobResult is one run of a batch job.
type jobResult struct {
	// wall is the job's latency: machine creation, binding and the run.
	// Cloning the inputs and checking the output are outside it.
	wall                 time.Duration
	run, phaseB          time.Duration
	cpu                  time.Duration
	specHits, specMisses int64 // misses: interpreter fallbacks plus rejected chunks
	fused                int
	rep                  *rt.Report
	fingerprint          [32]byte
	traced               *tracerCounts // traced runs only
	// err is a failed layer call or a wrong output; repeatErr a
	// simulated report that differs from the job's usual one, which is
	// counted apart from the failures (see sample.unrepeated).
	err, repeatErr error
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}

// runJob executes one job. With traced set, the runtime gets a tracer
// and the recorder gets spans around each layer call.
func runJob(j *batchJob, rec *recorder, id int, traced bool) jobResult {
	var res jobResult
	root := rec.begin("bench.job", -1, id)
	defer rec.end(root)
	in := cloneBindings(j.input)
	// Collect the previous jobs' garbage first, so that a job's time is
	// its own work and not the GC debt of the job before it.
	runtime.GC()

	c0 := cpuTime()
	t0 := time.Now()
	mach, err := sim.NewMachine(j.spec)
	t1 := time.Now()
	if err != nil {
		res.err = fmt.Errorf("machine: %w", err)
		return res
	}
	inst, err := j.mod.Bind(in)
	t2 := time.Now()
	if err != nil {
		res.err = fmt.Errorf("bind: %w", err)
		return res
	}
	opts := j.opts
	var tr *trace.Tracer
	if traced {
		tr = trace.New()
		opts.Tracer = tr
	}
	r := rt.New(mach, opts)
	err = r.Run(inst)
	t3 := time.Now()
	res.cpu = cpuTime() - c0
	rec.record("sim.NewMachine", t0, t1, root, id)
	rec.record("ir.Bind", t1, t2, root, id)
	rec.record("rt.Run", t2, t3, root, id)
	res.wall, res.run, res.phaseB = t3.Sub(t0), t3.Sub(t2), r.PhaseBWall()
	if err != nil {
		res.err = fmt.Errorf("run: %w", err)
		return res
	}
	res.rep = r.Report()
	res.specHits = r.SpecHits()
	res.specMisses = r.SpecFallbacks()
	for _, n := range r.SpecRejects() {
		res.specMisses += n
	}
	res.fused = r.FusedLaunches()
	if tr != nil {
		res.traced = countTracer(tr)
	}
	fp, err := reportFingerprint(res.rep)
	if err != nil {
		res.err = err
		return res
	}
	res.fingerprint = fp

	v := rec.begin("apps.verify", root, id)
	if err := j.check(inst); err != nil {
		res.err = fmt.Errorf("output check: %w", err)
	}
	rec.end(v)
	return res
}

// reportFingerprint hashes everything a report says about simulated
// time, transfers, launches, memory and events. The functional-work
// counters (Report.Counters and the per-kernel ones) are left out: the
// BFS kernels race benignly on same-value writes, so how many writes
// execute varies from run to run while every simulated time repeats.
func reportFingerprint(rep *rt.Report) ([32]byte, error) {
	c := *rep
	c.Counters = sim.Counters{}
	c.PerKernel = make(map[string]*rt.KernelStats, len(rep.PerKernel))
	for name, ks := range rep.PerKernel {
		c.PerKernel[name] = &rt.KernelStats{Launches: ks.Launches, Time: ks.Time}
	}
	data, err := json.Marshal(&c)
	if err != nil {
		return [32]byte{}, fmt.Errorf("report: %w", err)
	}
	return sha256.Sum256(data), nil
}

// batchRun is the outcome of running whole passes over the jobs.
type batchRun struct {
	passes [][]jobResult
}

// runPasses runs n whole passes over the jobs, so every run of a
// workload measures the same jobs the same number of times.
func runPasses(jobs []batchJob, n int, rec *recorder, traced bool, nextID *int) batchRun {
	var br batchRun
	for p := 0; p < n; p++ {
		pass := make([]jobResult, len(jobs))
		for i := range jobs {
			pass[i] = runJob(&jobs[i], rec, *nextID, traced)
			*nextID++
		}
		br.passes = append(br.passes, pass)
	}
	return br
}

// passesFor is how many passes of nominal length fit in d, at least one.
func passesFor(d, nominal time.Duration) int {
	return max(1, int(d/nominal))
}

// checkRepeat marks every run whose simulated report differs from the
// one most runs of the same job produced. Simulated time is meant to
// be deterministic, so any difference is a program defect.
func checkRepeat(jobs []batchJob, runs ...batchRun) {
	for i := range jobs {
		var fps [][32]byte
		for _, br := range runs {
			for _, pass := range br.passes {
				if pass[i].err == nil {
					fps = append(fps, pass[i].fingerprint)
				}
			}
		}
		usual := mode(fps)
		for _, br := range runs {
			for _, pass := range br.passes {
				if r := &pass[i]; r.err == nil && r.fingerprint != usual {
					r.repeatErr = fmt.Errorf("simulated report differs from the job's usual one (program defect)")
				}
			}
		}
	}
}

// mode returns the most frequent value, the earliest on a tie.
func mode[T comparable](vs []T) T {
	var best T
	n := map[T]int{}
	for _, v := range vs {
		n[v]++
		if n[v] > n[best] {
			best = v
		}
	}
	return best
}

// batchStats folds a batch run into per-pass and per-job figures.
type batchStats struct {
	samples                []sample
	jobs                   int
	wall, run, phaseB, cpu time.Duration
	sim                    simTotals
	fused                  int
	specHits, specMisses   int64
	planHits, planMisses   int64
	reloads, reloadSkips   int64
	spanTime               map[string]time.Duration
	passes                 int
	latencies              []time.Duration
}

func foldBatch(br batchRun, jobs []batchJob, w io.Writer) batchStats {
	st := batchStats{spanTime: map[string]time.Duration{}, passes: len(br.passes)}
	for _, pass := range br.passes {
		for i, r := range pass {
			st.jobs++
			st.samples = append(st.samples, sample{latency: r.wall, ok: r.err == nil, wrong: r.err != nil, unrepeated: r.repeatErr != nil})
			st.latencies = append(st.latencies, r.wall)
			st.wall += r.wall
			st.run += r.run
			st.phaseB += r.phaseB
			st.cpu += r.cpu
			st.specHits += r.specHits
			st.specMisses += r.specMisses
			st.fused += r.fused
			if r.repeatErr != nil {
				fmt.Fprintf(w, "job %s: %v\n", jobs[i].name, r.repeatErr)
			}
			if r.err != nil {
				fmt.Fprintf(w, "job %s failed: %v\n", jobs[i].name, r.err)
				continue
			}
			st.sim.add(r.rep)
			if tc := r.traced; tc != nil {
				st.planHits += tc.planHits
				st.planMisses += tc.planMisses
				st.reloads += tc.reloads
				st.reloadSkips += tc.reloadSkips
				for k, d := range tc.spanTime {
					st.spanTime[k] += d
				}
			}
		}
	}
	return st
}

// simTotals sums what reports say about simulated time, transfers and
// memory.
type simTotals struct {
	launches, halo         int
	total, buckets         time.Duration // Report.Total() and the synchronous bucket sum
	kernel, cpuGPU, gpuGPU time.Duration
	h2d, d2h, p2p          int64
	peakDevice             int64 // the largest single report's
}

func (t *simTotals) add(rep *rt.Report) {
	t.launches += rep.KernelLaunches
	t.total += rep.Total()
	t.buckets += rep.KernelTime + rep.CPUGPUTime + rep.GPUGPUTime
	t.kernel += rep.KernelTime
	t.cpuGPU += rep.CPUGPUTime
	t.gpuGPU += rep.GPUGPUTime
	t.h2d += rep.BytesH2D
	t.d2h += rep.BytesD2H
	t.p2p += rep.BytesP2P
	t.peakDevice = max(t.peakDevice, rep.PeakUserBytes+rep.PeakSystemBytes)
	for _, e := range rep.Events {
		if e.Kind == "halo-exchange" {
			t.halo++
		}
	}
}

// emit records the timing model's metrics, dividing the sums by passes.
func (t simTotals) emit(m metricSet, passes int) {
	per := func(v float64) float64 { return v / float64(passes) }
	perMS := func(d time.Duration) time.Duration { return d / time.Duration(passes) }
	m.set("rt.launches", per(float64(t.launches)), "count")
	m.set("rt.halo_exchanges", per(float64(t.halo)), "count")
	m.ratio("rt.overlap_ratio", msf(perMS(t.total)), msf(perMS(t.buckets)), "sim_ms")
	m.simMS("sim.kernel_ms", perMS(t.kernel))
	m.simMS("sim.cpu_gpu_ms", perMS(t.cpuGPU))
	m.simMS("sim.gpu_gpu_ms", perMS(t.gpuGPU))
	m.set("sim.h2d_mb", per(float64(t.h2d))/(1<<20), "MB")
	m.set("sim.d2h_mb", per(float64(t.d2h))/(1<<20), "MB")
	m.set("sim.p2p_mb", per(float64(t.p2p))/(1<<20), "MB")
	m.set("sim.peak_device_mb", float64(t.peakDevice)/(1<<20), "MB")
}

// tracerCounts is what a job's runtime tracer recorded, kept instead
// of the tracer so that a traced run does not hold every span.
type tracerCounts struct {
	planHits, planMisses, reloads, reloadSkips int64
	spanTime                                   map[string]time.Duration
}

func countTracer(tr *trace.Tracer) *tracerCounts {
	m := tr.Metrics()
	tc := &tracerCounts{
		planHits:    m.Counter("plan.hits"),
		planMisses:  m.Counter("plan.misses"),
		reloads:     m.Counter("loader.reloads"),
		reloadSkips: m.Counter("loader.reload_skips"),
		spanTime:    map[string]time.Duration{},
	}
	for _, s := range tr.Spans() {
		tc.spanTime[spanKind(s.Kind)] += s.Duration()
	}
	return tc
}

// spanKind groups the tracer's span kinds into the simulated-time
// buckets the benchmark reports.
func spanKind(k trace.Kind) string {
	switch k {
	case trace.KindKernel, trace.KindSpecKernel:
		return "kernel"
	case trace.KindH2D:
		return "h2d"
	case trace.KindGather:
		return "gather"
	case trace.KindD2D:
		return "d2d"
	case trace.KindHalo:
		return "halo"
	default:
		return "other"
	}
}

// perPass divides a whole-run total by the number of passes.
func (st batchStats) perPass(v float64) float64 { return v / float64(st.passes) }

// perJob divides a whole-run duration by the number of jobs.
func (st batchStats) perJob(d time.Duration) time.Duration {
	if st.jobs == 0 {
		return 0
	}
	return d / time.Duration(st.jobs)
}

// jobTable prints one line per job of a pass: its simulated time under
// the reported schedule against the synchronous bucket sum.
func jobTable(w io.Writer, jobs []batchJob, pass []jobResult) {
	type row struct {
		Job      string  `json:"job"`
		TotalMS  float64 `json:"sim_total_ms"`
		SyncMS   float64 `json:"sim_sync_sum_ms"`
		Overlap  float64 `json:"overlap_ratio"`
		HostMS   float64 `json:"host_ms"`
		Launches int     `json:"launches"`
		SpecHits int64   `json:"spec_hits"`
		SpecMiss int64   `json:"spec_misses"`
	}
	var rows []row
	for i, r := range pass {
		if r.rep == nil {
			continue
		}
		sum := r.rep.KernelTime + r.rep.CPUGPUTime + r.rep.GPUGPUTime
		if sum <= 0 {
			continue
		}
		rows = append(rows, row{
			Job: jobs[i].name, TotalMS: msf(r.rep.Total()), SyncMS: msf(sum),
			Overlap: float64(r.rep.Total()) / float64(sum), HostMS: msf(r.wall),
			Launches: r.rep.KernelLaunches, SpecHits: r.specHits, SpecMiss: r.specMisses,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Job < rows[j].Job })
	for _, r := range rows {
		line, _ := json.Marshal(map[string]any{"job": r})
		fmt.Fprintln(w, string(line))
	}
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
