package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accmulti/internal/apps"
	"accmulti/internal/cliutil"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/serve"
	"accmulti/internal/sim"
)

// accd-mixed settings. At this rate a request that runs a program
// (about 15 ms on two cores) mostly has the machine to itself, so its
// latency is its own work; when one overruns its slot, the requests
// due behind it wait and that wait is counted. One client keeps two
// requests from sharing the cores, which on a two-core box made the
// median swing with how often they happened to overlap. The latency
// limit is what slo_ok_ratio counts against.
const (
	accdRate     = 20 // requests per second, open loop
	accdClients  = 1  // client goroutines and connections
	accdSaltOdds = 4  // one request in accdSaltOdds carries a new source
	accdSLO      = 100 * time.Millisecond
	// accdCacheEntries caps accd's program cache. A salted source is
	// used once, so the cap bounds the memory those hold (a compiled
	// 512-kernel pipeline holds about 5.5 MB). The corpus' own sources
	// recur every few dozen requests and stay cached; a rare longer gap
	// would evict one, and its next request would be a miss that
	// serve.cache_hit_ratio and serve.evictions count.
	accdCacheEntries = 48
)

// accdServer is an in-process accd on a loopback listener.
type accdServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

func startAccd() (*accdServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	a := &accdServer{
		srv:  serve.New(serve.Config{CacheEntries: accdCacheEntries}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     accdClients,
			MaxIdleConnsPerHost: accdClients,
		}},
	}
	a.hs = &http.Server{Handler: a.srv.Handler()}
	go func() { a.done <- a.hs.Serve(ln) }()
	return a, nil
}

// stop shuts the listener and every connection down and waits for the
// serve loop to return.
func (a *accdServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := a.hs.Shutdown(ctx)
	a.client.CloseIdleConnections()
	if serr := <-a.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// reply is one response as the benchmark checks it.
type reply struct {
	status int
	hit    bool
	body   []byte
}

func (a *accdServer) post(path string, body []byte) (reply, error) {
	resp, err := a.client.Post(a.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, hit: resp.Header.Get("X-Accd-Cache") == "hit", body: data}, nil
}

// serviceMetrics is the part of GET /v1/metrics the benchmark reads.
type serviceMetrics struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Bounds []int64 `json:"bounds"`
		Counts []int64 `json:"counts"`
	} `json:"histograms"`
}

func (a *accdServer) metrics() (*serviceMetrics, error) {
	resp, err := a.client.Get(a.url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serviceMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode metrics: %w", err)
	}
	return &m, nil
}

// accdEntry is one distinct request of the corpus.
type accdEntry struct {
	name string
	path string
	// weight is how often the entry is drawn relative to the others.
	weight int
	run    *serve.RunRequest
	comp   *serve.CompileRequest
	// want is the response of the serial reference pass; a salted copy
	// of the request must get the same response. wantRun decodes it for
	// a run request that succeeded.
	want    reply
	wantRun serve.RunResponse
	wantFP  [32]byte
}

// body marshals the request, with a salt comment appended to its
// source when salt is non-empty. The comment goes last so no source
// line moves and the response stays the same.
func (e *accdEntry) body(salt string) ([]byte, error) {
	if e.comp != nil {
		r := *e.comp
		r.Source += salt
		return json.Marshal(r)
	}
	r := *e.run
	r.Source += salt
	return json.Marshal(r)
}

// verdict is how a response compares with the reference.
type verdict struct {
	// failed: a refusal, timeout or error status where the reference
	// pass got an answer, or no response at all.
	failed bool
	// wrong: the status matched but the content did not — array
	// digests or scalars of a run, the statistics or diagnostics of a
	// compile, the body of an expected rejection.
	wrong bool
	// fp fingerprints a run response's simulated report (zero for other
	// responses), for the repeat check.
	fp [32]byte
}

// check compares got with the reference response. A compile response
// names the program's content hash, which a salt changes, so it is
// compared without it.
func (e *accdEntry) check(got reply) verdict {
	if got.status != e.want.status {
		return verdict{failed: true}
	}
	switch {
	case got.status != http.StatusOK:
		return verdict{wrong: !bytes.Equal(got.body, e.want.body)}
	case e.comp != nil:
		var g, w serve.CompileResponse
		if json.Unmarshal(got.body, &g) != nil || json.Unmarshal(e.want.body, &w) != nil {
			return verdict{wrong: true}
		}
		return verdict{wrong: g.Stats != w.Stats || !bytes.Equal(g.Diagnostics, w.Diagnostics)}
	}
	var g serve.RunResponse
	if json.Unmarshal(got.body, &g) != nil {
		return verdict{wrong: true}
	}
	fp, err := reportFingerprint(g.Report)
	if err != nil {
		return verdict{wrong: true}
	}
	return verdict{
		wrong: !maps.Equal(g.Digests, e.wantRun.Digests) || !maps.Equal(g.Scalars, e.wantRun.Scalars),
		fp:    fp,
	}
}

// accdCorpus is the request mix of the accd load test: the paper apps
// built server-side by their generators, the halo stencil on both
// machines, a k-kernel pipeline, compile-only requests for larger
// pipelines and two app sources, a source the vet gate rejects and one
// that does not compile.
//
// The run requests are sized to about 15 ms each on two cores and drawn
// three times as often as the rest, so the median request is one whose
// latency is the program's work rather than the HTTP path, and a
// scheduler hiccup is small beside a request. The compile-only
// pipelines are large (496..544 kernels, about 40 ms to compile and vet
// on two cores) and drawn as often as the run requests, so their
// salted copies, about one request in eleven, are the slowest
// requests: the tail is cache misses paying for the compile layers,
// not run requests the host happened to slow.
func accdCorpus(seed int64) []*accdEntry {
	var c []*accdEntry
	run := func(name string, weight int, r *serve.RunRequest) {
		c = append(c, &accdEntry{name: name, path: "/v1/run", weight: weight, run: r})
	}
	compile := func(name string, weight int, src string) {
		c = append(c, &accdEntry{name: name, path: "/v1/compile", weight: weight,
			comp: &serve.CompileRequest{Source: src, Vet: true}})
	}
	for _, a := range []struct {
		name    string
		scale   float64
		vet     bool
		scalars map[string]float64
	}{
		{"MD", 0.014, true, nil},
		// KMEANS trimmed to one Lloyd iteration.
		{"KMEANS", 0.0012, true, map[string]float64{"iters": 1}},
		// BFS skips the vet gate: its data-dependent gather is one the
		// verifier rightly refuses to prove.
		{"BFS", 0.0024, false, nil},
	} {
		app, _ := apps.ByName(a.name)
		run(a.name, 3, &serve.RunRequest{
			Source: app.Source, Vet: a.vet, Scalars: a.scalars,
			Generator: &serve.GeneratorSpec{App: a.name, Scale: a.scale, Seed: seed},
		})
	}
	run("stencil-desktop", 3, &serve.RunRequest{
		Source: haloStencilSrc, Vet: true,
		Scalars: map[string]float64{"n": 8192, "steps": 24},
	})
	run("stencil-super", 3, &serve.RunRequest{
		Source: haloStencilSrc, Vet: true, Machine: "super",
		Scalars: map[string]float64{"n": 16384, "steps": 12},
	})
	run("pipeline8", 3, &serve.RunRequest{
		Source: pipelineSrc(8), Vet: true,
		Scalars: map[string]float64{"n": 65536},
	})
	for _, k := range []int{496, 512, 528, 544} {
		compile(fmt.Sprintf("compile-pipeline%d", k), 3, pipelineSrc(k))
	}
	for _, name := range []string{"MD", "KMEANS"} {
		app, _ := apps.ByName(name)
		compile("compile-"+name, 1, app.Source)
	}
	run("vet-rejected", 1, &serve.RunRequest{
		Source: vetRejectedSrc, Vet: true, Scalars: map[string]float64{"n": 64},
	})
	run("no-compile", 1, &serve.RunRequest{Source: "int n void main() { }"})
	return c
}

// pipelineSrc builds a k-kernel pipeline over small arrays: each kernel
// reads its predecessor's output, so compile, translation and the vet
// pass grow with k while the run stays short.
func pipelineSrc(k int) string {
	var b bytes.Buffer
	b.WriteString("int n;\nfloat a0[n]")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, ", a%d[n]", i)
	}
	fmt.Fprintf(&b, ";\n\nvoid main() {\n    int i;\n    #pragma acc data copyin(a0) copyout(a%d)", k)
	if k > 1 {
		b.WriteString(" create(a1")
		for i := 2; i < k; i++ {
			fmt.Fprintf(&b, ", a%d", i)
		}
		b.WriteString(")")
	}
	b.WriteString("\n    {\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "        #pragma acc localaccess(a%d) stride(1)\n", i-1)
		fmt.Fprintf(&b, "        #pragma acc localaccess(a%d) stride(1)\n", i)
		b.WriteString("        #pragma acc parallel loop\n")
		b.WriteString("        for (i = 0; i < n; i++) {\n")
		fmt.Fprintf(&b, "            a%d[i] = a%d[i] * %d.5 + %d.0;\n", i, i-1, i, i)
		b.WriteString("        }\n")
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

// vetRejectedSrc reads b one element past the footprint its localaccess
// directive declares, which the vet gate rejects.
const vetRejectedSrc = `
int n;
float a[n];
float b[n];

void main() {
    int i;
    #pragma acc data copy(a, b)
    {
        #pragma acc parallel loop
        #pragma acc localaccess(b) stride(1)
        for (i = 0; i < n; i++) {
            a[i] = b[i + 1];
        }
    }
}
`

// accdSetup is a started service with its corpus and references.
type accdSetup struct {
	srv    *accdServer
	corpus []*accdEntry
	// reports are the run responses' reports from the reference pass.
	reports []*rt.Report
}

// setupAccd starts a service and makes one serial pass over the corpus,
// which records the reference responses and fills the program cache.
// The reference pass must see no refusal, timeout or server error.
func setupAccd(seed int64) (*accdSetup, error) {
	srv, err := startAccd()
	if err != nil {
		return nil, err
	}
	s := &accdSetup{srv: srv, corpus: accdCorpus(seed)}
	for _, e := range s.corpus {
		body, err := e.body("")
		if err == nil {
			e.want, err = srv.post(e.path, body)
		}
		if err == nil && e.want.status != http.StatusOK && e.want.status != http.StatusUnprocessableEntity {
			err = fmt.Errorf("status %d: %s", e.want.status, e.want.body)
		}
		if err == nil && e.run != nil && e.want.status == http.StatusOK {
			if err = json.Unmarshal(e.want.body, &e.wantRun); err == nil {
				s.reports = append(s.reports, e.wantRun.Report)
				e.wantFP, err = reportFingerprint(e.wantRun.Report)
			}
		}
		if err != nil {
			srv.stop()
			return nil, fmt.Errorf("reference %s: %w", e.name, err)
		}
	}
	return s, nil
}

// accdRequest is one scheduled request and what became of it.
type accdRequest struct {
	entry  *accdEntry
	salted bool
	due    time.Time
	sent   time.Time
	done   time.Time
	got    reply
	verdict
	err error
}

// schedule lays out the requests of a window as a run of shuffled
// decks. A deck holds each entry accdSaltOdds*weight times, weight of
// them salted, so every window sends the same mix of requests and of
// cache misses; the seed only orders them.
func schedule(rng *rand.Rand, corpus []*accdEntry, start time.Time, d time.Duration) []accdRequest {
	var deck []accdRequest
	for _, e := range corpus {
		for i := 0; i < accdSaltOdds*e.weight; i++ {
			deck = append(deck, accdRequest{entry: e, salted: i < e.weight})
		}
	}
	n := int(d.Seconds() * accdRate)
	reqs := make([]accdRequest, 0, n+len(deck))
	for len(reqs) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		reqs = append(reqs, deck...)
	}
	reqs = reqs[:n]
	gap := time.Second / accdRate
	for i := range reqs {
		reqs[i].due = start.Add(time.Duration(i) * gap)
	}
	return reqs
}

// openLoop sends the scheduled requests from accdClients goroutines.
// A client sends request i at its due time, or as soon as it is free
// when it is already late; each request's latency runs from its due
// time, so a stall also counts against the requests queued behind it.
func openLoop(s *accdSetup, reqs []accdRequest, salt string, rec *recorder, firstID int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < accdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				id := firstID + i
				var body []byte
				if r.salted {
					body, r.err = r.entry.body(fmt.Sprintf("\n/* %s-%d */\n", salt, id))
				} else {
					body, r.err = r.entry.body("")
				}
				if r.err != nil {
					r.sent, r.done = r.due, r.due
					continue
				}
				time.Sleep(time.Until(r.due))
				root := rec.begin("bench.request", -1, id)
				r.sent = time.Now()
				r.got, r.err = s.srv.post(r.entry.path, body)
				r.done = time.Now()
				rec.record("serve.Handler", r.sent, r.done, root, id)
				chk := rec.begin("bench.check", root, id)
				if r.err == nil {
					r.verdict = r.entry.check(r.got)
				}
				rec.end(chk)
				rec.end(root)
			}
		}()
	}
	wg.Wait()
}

// accdStats folds a window of requests.
type accdStats struct {
	samples               []sample
	latencies             []time.Duration
	hitRT, missRT, lag    []time.Duration
	hits, misses, refused int
	respBytes             int64
}

func foldAccd(reqs []accdRequest, w io.Writer) accdStats {
	var st accdStats
	// The repeat check: a run's simulated report must equal the one most
	// runs of the same request produced, the reference pass included.
	fps := map[*accdEntry][][32]byte{}
	for i := range reqs {
		if r := &reqs[i]; r.fp != ([32]byte{}) {
			fps[r.entry] = append(fps[r.entry], r.fp)
		}
	}
	usual := map[*accdEntry][32]byte{}
	for e, l := range fps {
		usual[e] = mode(append(l, e.wantFP))
	}
	failures := map[string]int{}
	for i := range reqs {
		r := &reqs[i]
		lat := r.done.Sub(r.due)
		failed := r.err != nil || r.failed || r.wrong
		unrepeated := !failed && r.fp != usual[r.entry]
		why := fmt.Sprintf("failed: status %d, want %d", r.got.status, r.entry.want.status)
		switch {
		case r.err != nil:
			why = "failed: " + r.err.Error()
		case r.failed:
		case r.wrong:
			why = "failed: output differs from the reference pass"
		case unrepeated:
			why = "simulated report differs from the request's usual one (program defect)"
		}
		st.samples = append(st.samples, sample{latency: lat, ok: !failed, wrong: r.wrong, unrepeated: unrepeated})
		st.latencies = append(st.latencies, lat)
		if failed || unrepeated {
			failures[r.entry.name+": "+why]++
		}
		if r.err != nil {
			continue
		}
		st.lag = append(st.lag, r.sent.Sub(r.due))
		if r.got.status == http.StatusTooManyRequests {
			st.refused++
		}
		st.respBytes += int64(len(r.got.body))
		if r.got.hit {
			st.hits++
			st.hitRT = append(st.hitRT, r.done.Sub(r.sent))
		} else {
			st.misses++
			st.missRT = append(st.missRT, r.done.Sub(r.sent))
		}
	}
	for f, n := range failures {
		fmt.Fprintf(w, "accd-mixed: %d %s\n", n, f)
	}
	return st
}

// measureAccd runs one open-loop window of d against the service.
func measureAccd(s *accdSetup, rng *rand.Rand, d time.Duration, salt string, rec *recorder, firstID int) ([]accdRequest, time.Duration) {
	start := time.Now().Add(10 * time.Millisecond)
	reqs := schedule(rng, s.corpus, start, d)
	openLoop(s, reqs, salt, rec, firstID)
	return reqs, time.Since(start)
}

// runAccd measures accd-mixed. Set-up (service start, corpus, serial
// reference pass) is repeated setupReps times; the last service is
// measured. Untraced, one open-loop window yields the end-to-end
// metrics. Traced, an untraced half-window is followed by a half-window
// with spans, and the compile, generate, bind and machine layers are
// timed by calling them directly on the corpus.
func runAccd(cfg runConfig) (*outcome, error) {
	var setups []time.Duration
	var s *accdSetup
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.srv.stop(); err != nil {
				return nil, fmt.Errorf("stop accd: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = setupAccd(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer s.srv.stop()

	var simTotal time.Duration
	for _, r := range s.reports {
		simTotal += r.Total()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	salt := fmt.Sprintf("perfbench salt %d %d", cfg.seed, time.Now().UnixNano())

	if !cfg.trace {
		c0 := cpuTime()
		reqs, window := measureAccd(s, rng, cfg.seconds, salt, nil, 0)
		cpu := cpuTime() - c0
		st := foldAccd(reqs, cfg.stderr)
		e2e, tl := endToEnd(e2eInput{
			setups: setups, samples: st.samples, window: window, cpu: cpu,
			peakRSS: peakRSS(), simMakespan: simTotal, sloLimit: accdSLO,
		})
		return newOutcome(st.samples, e2e, nil, tl), nil
	}

	rec := newRecorder()
	set := &batchSetup{}
	if err := probeLayers(s.corpus, compiler{rec: rec, set: set}); err != nil {
		return nil, err
	}
	half := cfg.seconds / 2
	plainReqs, _ := measureAccd(s, rng, half, salt, nil, 0)
	before, err := s.srv.metrics()
	if err != nil {
		return nil, err
	}
	tracedReqs, _ := measureAccd(s, rng, half, salt, rec, len(plainReqs))
	after, err := s.srv.metrics()
	if err != nil {
		return nil, err
	}
	if err := rec.write(cfg.spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	u := foldAccd(plainReqs, cfg.stderr)
	t := foldAccd(tracedReqs, cfg.stderr)
	spans := selfTimes(rec.snapshot())

	m := metricSet{}
	var sim simTotals
	for _, r := range s.reports {
		sim.add(r)
	}
	sim.emit(m, 1)
	compileLayers(m, spans, set.kernels, set.specKernels)
	m.ms("apps.generate_ms", spans["apps.Generate"].perCall())
	m.ms("ir.bind_ms", spans["ir.Bind"].perCall())
	m.ms("sim.machine_ms", spans["sim.NewMachine"].perCall())
	m.ms("apps.verify_ms", spans["bench.check"].perCall())
	m.ms("bench.unattributed_ms", spans["bench.request"].perCall())

	m.ratio("serve.cache_hit_ratio", float64(t.hits), float64(t.hits+t.misses), "count")
	m.ms("serve.hit_p50_ms", median(t.hitRT))
	m.ms("serve.miss_p50_ms", median(t.missRT))
	diff := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	m.ratio("serve.pool_reuse_ratio", float64(diff("pool.reuse")), float64(diff("pool.reuse")+diff("pool.create")), "count")
	m.set("serve.evictions", float64(diff("cache.evict")), "count")
	m.set("serve.refused", float64(t.refused), "count")
	if n := t.hits + t.misses; n > 0 {
		m.set("serve.resp_kb", float64(t.respBytes)/1024/float64(n), "KB")
	}
	if hb, ha := before.Histograms["queue.wait_us"], after.Histograms["queue.wait_us"]; len(ha.Counts) > 0 {
		counts := append([]int64(nil), ha.Counts...)
		for i := range hb.Counts {
			counts[i] -= hb.Counts[i]
		}
		m.set("serve.queue_wait_p50_ms", bucketQuantile(ha.Bounds, counts, 0.5)/1000, "ms")
		m.set("serve.queue_wait_p99_ms", bucketQuantile(ha.Bounds, counts, 0.99)/1000, "ms")
	}
	m.ratio("trace.overhead_ratio", msf(median(t.latencies)), msf(median(u.latencies)), "ms")
	m.ms("bench.gen_lag_p99_ms", percentile(sortedCopy(t.lag), 99))

	samples := append(u.samples, t.samples...)
	return newOutcome(samples, nil, m, tail{}), nil
}

// probeLayers times, on every distinct source and run request of the
// corpus, the layer calls accd makes inside a request: compile, vet,
// input generation, machine creation and binding. accd's HTTP API does
// not expose these, so the traced run makes the calls itself.
func probeLayers(corpus []*accdEntry, c compiler) error {
	for _, e := range corpus {
		src := ""
		if e.comp != nil {
			src = e.comp.Source
		} else {
			src = e.run.Source
		}
		mod, err := c.compile(src)
		if err != nil || e.run == nil {
			continue // the corpus holds a source that must not compile
		}
		b := ir.NewBindings()
		if g := e.run.Generator; g != nil {
			app, err := apps.ByName(g.App)
			if err != nil {
				return err
			}
			in, err := generate(c.rec, app, g.Scale, g.Seed)
			if err != nil {
				return err
			}
			b = in.Bindings
		}
		for k, v := range e.run.Scalars {
			b.SetScalar(k, v)
		}
		spec, err := cliutil.Machine(e.run.Machine, e.run.GPUs)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = sim.NewMachine(spec)
		t1 := time.Now()
		c.rec.record("sim.NewMachine", t0, t1, -1, -1)
		if err != nil {
			return err
		}
		_, err = mod.Bind(b)
		c.rec.record("ir.Bind", t1, time.Now(), -1, -1)
		if err != nil {
			return fmt.Errorf("%s: bind: %w", e.name, err)
		}
	}
	return nil
}
