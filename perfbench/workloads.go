package main

import (
	"fmt"
	"runtime"
	"time"

	"accmulti/internal/apps"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// setupReps is how many times a run builds its set-up; setup_s is the
// median. Each build starts after a GC, so that it does not pay for
// collecting the garbage of the one before.
const setupReps = 15

// reproScale is 0.1x accbench's default per-app scales (MD 1.0,
// KMEANS 0.08, BFS 0.1), which keeps one pass of the Fig 7 matrix near
// ten host seconds on two cores.
var reproScale = map[string]float64{"MD": 0.1, "KMEANS": 0.008, "BFS": 0.01}

// buildReproSweep sets up the paper's Fig 7 version matrix: MD, KMEANS
// and BFS on both Table I machines, as OpenMP, stock OpenACC on one
// GPU, CUDA on one GPU and the proposal on 1..N GPUs, all on the
// bulk-synchronous schedule the paper measured.
func buildReproSweep(seed int64, c compiler) error {
	c.set.sloLimit = 2 * time.Second
	c.set.pass = 10 * time.Second
	for _, app := range apps.All() {
		mod, err := c.compile(app.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		in, err := generate(c.rec, app, reproScale[app.Name], seed)
		if err != nil {
			return err
		}
		for _, mach := range []sim.MachineSpec{sim.Desktop(), sim.SupercomputerNode()} {
			type version struct {
				label string
				mode  rt.Mode
				gpus  int
			}
			versions := []version{
				{"OpenMP", rt.ModeCPU, 0},
				{"OpenACC(1)", rt.ModeBaseline, 1},
				{"CUDA(1)", rt.ModeCUDA, 1},
			}
			for g := 1; g <= mach.NumGPUs; g++ {
				versions = append(versions, version{fmt.Sprintf("Proposal(%d)", g), rt.ModeMultiGPU, g})
			}
			for _, v := range versions {
				spec := mach
				if v.gpus > 0 {
					spec = mach.WithGPUs(v.gpus)
				}
				c.set.jobs = append(c.set.jobs, batchJob{
					name:  fmt.Sprintf("%s/%s/%s", app.Name, mach.Name, v.label),
					mod:   mod,
					input: in.Bindings,
					check: in.Verify,
					spec:  spec,
					opts:  rt.Options{Mode: v.mode},
				})
			}
		}
	}
	return nil
}

// Cluster-comm sizes: small arrays and hundreds of steps, so that the
// runtime's host work (loader, dirty diff, halo and network transfers,
// plan cache, async overlay) is a large share of each job's wall time
// and simulated time is bound by communication.
const (
	clusterBFSScale    = 0.02
	replicatedN        = 16384
	replicatedSteps    = 500
	haloN              = 1024
	haloSteps          = 500
	clusterNodes       = 2
	clusterGPUsPerNode = 2
)

// buildClusterComm sets up BFS, the replicated ping-pong stencil and
// the halo stencil on a 2x2 cluster under the async schedule.
func buildClusterComm(seed int64, c compiler) error {
	c.set.sloLimit = time.Second
	c.set.pass = 400 * time.Millisecond
	spec := sim.Cluster(clusterNodes, clusterGPUsPerNode)
	opts := rt.Options{Async: true}

	bfs := apps.BFS()
	mod, err := c.compile(bfs.Source)
	if err != nil {
		return fmt.Errorf("BFS: %w", err)
	}
	in, err := generate(c.rec, bfs, clusterBFSScale, seed)
	if err != nil {
		return err
	}
	c.set.jobs = append(c.set.jobs, batchJob{
		name: "BFS", mod: mod, input: in.Bindings, check: in.Verify, spec: spec, opts: opts,
	})

	mod, err = c.compile(replicatedStencilSrc)
	if err != nil {
		return fmt.Errorf("replicated stencil: %w", err)
	}
	rin := stencilInput(replicatedN, replicatedSteps, seed)
	c.set.jobs = append(c.set.jobs, batchJob{
		name: "stencil-replicated", mod: mod, input: rin,
		check: replicatedReference(rin, replicatedSteps), spec: spec, opts: opts,
	})

	mod, err = c.compile(haloStencilSrc)
	if err != nil {
		return fmt.Errorf("halo stencil: %w", err)
	}
	hin := stencilInput(haloN, haloSteps, seed+1)
	c.set.jobs = append(c.set.jobs, batchJob{
		name: "stencil-halo", mod: mod, input: hin,
		check: haloReference(hin, haloSteps), spec: spec, opts: opts,
	})
	return nil
}

// runBatch sets a batch workload up setupReps times, then measures
// whole passes over its jobs, as many as fit the time at the
// workload's nominal pass length. Untraced, it reports the end-to-end
// metrics. Traced, it measures half the time untraced (for the
// runtime's own counters and the tracing-off baseline) and half with
// spans and the runtime tracer attached, and reports the per-layer
// metrics.
func runBatch(cfg runConfig, build func(int64, compiler) error) (*outcome, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var setups []time.Duration
	var set *batchSetup
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		set = &batchSetup{}
		if err := build(cfg.seed, compiler{rec: rec, set: set}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}

	nextID := 0
	if !cfg.trace {
		br := runPasses(set.jobs, passesFor(cfg.seconds, set.pass), nil, false, &nextID)
		checkRepeat(set.jobs, br)
		st := foldBatch(br, set.jobs, cfg.stderr)
		e2e, tl := endToEnd(e2eInput{
			setups:      setups,
			samples:     st.samples,
			window:      st.wall,
			cpu:         st.cpu,
			peakRSS:     peakRSS(),
			simMakespan: st.sim.total / time.Duration(st.passes),
			sloLimit:    set.sloLimit,
		})
		jobTable(cfg.stdout, set.jobs, br.passes[0])
		return newOutcome(st.samples, e2e, nil, tl), nil
	}

	half := passesFor(cfg.seconds/2, set.pass)
	plain := runPasses(set.jobs, half, nil, false, &nextID)
	traced := runPasses(set.jobs, half, rec, true, &nextID)
	checkRepeat(set.jobs, plain, traced)
	u := foldBatch(plain, set.jobs, cfg.stderr)
	t := foldBatch(traced, set.jobs, cfg.stderr)
	if err := rec.write(cfg.spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	spans := selfTimes(rec.snapshot())

	m := metricSet{}
	m.ms("rt.phase_b_ms", u.perJob(u.phaseB))
	m.ms("rt.run_ms", u.perJob(u.run))
	m.ms("rt.host_ms", u.perJob(u.run-u.phaseB))
	m.ratio("rt.spec_hit_ratio", u.perPass(float64(u.specHits)), u.perPass(float64(u.specHits+u.specMisses)), "count")
	m.set("rt.fused_launches", u.perPass(float64(u.fused)), "count")
	m.set("rt.fused_launches_traced", t.perPass(float64(t.fused)), "count")
	m.ratio("rt.plan_cache_hit_ratio", t.perPass(float64(t.planHits)), t.perPass(float64(t.planHits+t.planMisses)), "count")
	m.ratio("rt.reload_skip_ratio", t.perPass(float64(t.reloadSkips)), t.perPass(float64(t.reloads+t.reloadSkips)), "count")
	u.sim.emit(m, u.passes)
	for _, k := range []string{"kernel", "h2d", "gather", "d2d", "halo"} {
		m.simMS("trace.span_ms."+k, time.Duration(t.perPass(float64(t.spanTime[k]))))
	}
	m.ms("sim.machine_ms", t.perJob(spans["sim.NewMachine"].Self))
	m.ms("ir.bind_ms", t.perJob(spans["ir.Bind"].Self))
	m.ms("apps.verify_ms", t.perJob(spans["apps.verify"].Self))
	m.ms("bench.unattributed_ms", t.perJob(spans["bench.job"].Self))
	compileLayers(m, spans, set.kernels, set.specKernels)
	m.ms("apps.generate_ms", spans["apps.Generate"].Total/setupReps)
	m.ratio("trace.overhead_ratio", msf(median(t.latencies)), msf(median(u.latencies)), "ms")

	samples := append(u.samples, t.samples...)
	return newOutcome(samples, nil, m, tail{}), nil
}

// compileLayers records the compile layers' mean time per call, from
// the set-up spans, and the share of kernels the spec compiler took.
func compileLayers(m metricSet, spans map[string]layerTime, kernels, specKernels int) {
	m.ms("cc.parse_ms", spans["cc.ParseProgram"].perCall())
	m.ms("translator.translate_ms", spans["translator.Translate"].perCall())
	m.ms("analysis.vet_ms", spans["analysis.Vet"].perCall())
	m.ratio("translator.spec_kernel_ratio", float64(specKernels), float64(kernels), "count")
}

// newOutcome counts attempted, failed and unrepeated jobs.
func newOutcome(samples []sample, e2e, layers metricSet, tl tail) *outcome {
	o := &outcome{e2e: e2e, layers: layers, tail: tl, attempted: len(samples)}
	for _, s := range samples {
		if !s.ok {
			o.failed++
		}
		if s.unrepeated {
			o.unrepeated++
		}
		if s.wrong {
			o.wrong++
		}
	}
	return o
}
