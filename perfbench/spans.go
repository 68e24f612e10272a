package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one host-clock interval the benchmark recorded around a call
// into a layer of the program. Start and End are nanoseconds since the
// recorder was made; Parent indexes the enclosing span (-1 for a root);
// Job identifies the job or request the span belongs to (-1 for set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// recorder keeps spans in memory. A nil recorder records nothing, so
// untraced runs pay one nil check per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, job int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Job: job})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// record adds a span whose interval the caller already measured.
func (r *recorder) record(name string, start, end time.Time, parent, job int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
		Parent: parent, Job: job,
	})
	return len(r.spans) - 1
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON to path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTime is one span name's totals.
type layerTime struct {
	Self, Total time.Duration
	Count       int
}

// perCall is the mean self time of one span.
func (lt layerTime) perCall() time.Duration {
	if lt.Count == 0 {
		return 0
	}
	return lt.Self / time.Duration(lt.Count)
}

// selfTimes totals, per span name, the spans' durations and their self
// time: a span's duration minus the part of its interval that its
// children cover. Children that overlap one another are counted once.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(s, children[i]))
		lt.Count++
		out[s.Name] = lt
	}
	return out
}

// covered measures the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return sum + curHi - curLo
}
