// Command perfbench is the repository's benchmark. It drives the
// compiler, runtime, simulator and accd service through their public
// functions on one of three seeded workloads, checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of its standard output.
//
//	bash perfbench/run.sh --workload repro-sweep --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	spansPath string
	stdout    io.Writer
	stderr    io.Writer
}

// outcome is a workload's result.
type outcome struct {
	e2e, layers       metricSet
	tail              tail
	attempted, failed int
	// wrong counts the failed jobs whose output was wrong; correct is
	// printed as wrong == 0.
	wrong int
	// unrepeated counts the jobs whose simulated report did not repeat
	// (a program defect; not among the failed).
	unrepeated int
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"repro-sweep":  func(c runConfig) (*outcome, error) { return runBatch(c, buildReproSweep) },
	"cluster-comm": func(c runConfig) (*outcome, error) { return runBatch(c, buildClusterComm) },
	"accd-mixed":   runAccd,
}

// endToEndNames and perLayerNames are the metric catalogue, with
// units; BENCHMARK.json lists the same names.
var endToEndNames = []string{
	"setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "cpu_ms_per_job",
	"peak_rss_mb", "ok_ratio", "sim_makespan_ms", "slo_ok_ratio",
}

// perLayer lists every per-layer metric with its unit. A metric a
// workload cannot observe is reported as 0 (see README.md).
var perLayer = []struct{ name, unit string }{
	{"rt.phase_b_ms", "ms"},
	{"rt.run_ms", "ms"},
	{"rt.host_ms", "ms"},
	{"rt.launches", "count"},
	{"rt.spec_hit_ratio", "ratio"},
	{"rt.spec_hit_ratio.num", "count"},
	{"rt.spec_hit_ratio.den", "count"},
	{"rt.fused_launches", "count"},
	{"rt.fused_launches_traced", "count"},
	{"rt.plan_cache_hit_ratio", "ratio"},
	{"rt.plan_cache_hit_ratio.num", "count"},
	{"rt.plan_cache_hit_ratio.den", "count"},
	{"rt.reload_skip_ratio", "ratio"},
	{"rt.reload_skip_ratio.num", "count"},
	{"rt.reload_skip_ratio.den", "count"},
	{"rt.overlap_ratio", "ratio"},
	{"rt.overlap_ratio.num", "sim_ms"},
	{"rt.overlap_ratio.den", "sim_ms"},
	{"rt.halo_exchanges", "count"},
	{"rt.unrepeated_reports", "count"},
	{"sim.kernel_ms", "sim_ms"},
	{"sim.cpu_gpu_ms", "sim_ms"},
	{"sim.gpu_gpu_ms", "sim_ms"},
	{"sim.h2d_mb", "MB"},
	{"sim.d2h_mb", "MB"},
	{"sim.p2p_mb", "MB"},
	{"sim.peak_device_mb", "MB"},
	{"sim.machine_ms", "ms"},
	{"trace.span_ms.kernel", "sim_ms"},
	{"trace.span_ms.h2d", "sim_ms"},
	{"trace.span_ms.gather", "sim_ms"},
	{"trace.span_ms.d2d", "sim_ms"},
	{"trace.span_ms.halo", "sim_ms"},
	{"cc.parse_ms", "ms"},
	{"translator.translate_ms", "ms"},
	{"translator.spec_kernel_ratio", "ratio"},
	{"translator.spec_kernel_ratio.num", "count"},
	{"translator.spec_kernel_ratio.den", "count"},
	{"analysis.vet_ms", "ms"},
	{"ir.bind_ms", "ms"},
	{"apps.generate_ms", "ms"},
	{"apps.verify_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_hit_ratio.num", "count"},
	{"serve.cache_hit_ratio.den", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.pool_reuse_ratio", "ratio"},
	{"serve.pool_reuse_ratio.num", "count"},
	{"serve.pool_reuse_ratio.den", "count"},
	{"serve.evictions", "count"},
	{"serve.refused", "count"},
	{"serve.resp_kb", "KB"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.overhead_ratio.num", "ms"},
	{"trace.overhead_ratio.den", "ms"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.unattributed_ms", "ms"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload: repro-sweep, cluster-comm or accd-mixed")
	seed := fset.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fset.Int("seconds", 20, "how long to measure")
	traceOn := fset.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	spans := fset.String("spans", "", "file the traced run's spans are written to (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (repro-sweep, cluster-comm, accd-mixed), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceOn == 1,
		spansPath: *spans, stdout: stdout, stderr: stderr,
	}
	if cfg.spansPath == "" {
		cfg.spansPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
	}
	printJSON(stdout, map[string]any{"header": header(*name, cfg)})

	o, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	var metrics metricSet
	if cfg.trace {
		metrics = metricSet{}
		for _, l := range perLayer {
			metrics.set(l.name, 0, l.unit)
		}
		for k, v := range o.layers {
			metrics[k] = v
		}
		metrics.set("rt.unrepeated_reports", float64(o.unrepeated), "count")
	} else {
		metrics = o.e2e
		printJSON(stdout, map[string]any{"job_tail_ms": o.tail})
	}
	printJSON(stdout, map[string]any{"repeat_check": map[string]int{"jobs": o.attempted, "unrepeated": o.unrepeated}})
	printJSON(stdout, map[string]any{
		"correct":   o.wrong == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	return 0
}

func printJSON(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings are printed
	}
	fmt.Fprintln(w, string(data))
}

// header records what a run's numbers depend on besides the code.
func header(name string, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"src_sha256": sourceDigest("."),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the git commit run.sh found, or "unknown" outside a git
// checkout.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// hidden directories), which identifies the code measured when no
// commit is known.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
