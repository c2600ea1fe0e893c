package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one op or request
// share Trace; Parent is the id of the enclosing span, 0 at the top.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory; write saves them when the run ends, so
// recording costs a clock read and an append. Safe for concurrent use.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *Tracer) add(trace, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open records a span that has started but not ended; close ends it.
// Children opened in between name it as their parent.
func (t *Tracer) open(trace, parent int, name string) int {
	now := time.Now()
	return t.add(trace, parent, name, now, now)
}

func (t *Tracer) close(id int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *Tracer) timed(trace, parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(trace, parent, name, start, end)
	return end.Sub(start)
}

// snapshot returns a copy of the recorded spans.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// spanFile is the on-disk form of one traced run.
type spanFile struct {
	Env      Env    `json:"env"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []Span `json:"spans"`
}

// write saves the spans to path, creating its directory.
func (t *Tracer) write(path string, env Env, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	blob, err := json.Marshal(spanFile{Env: env, Workload: workload, Seed: seed, Spans: t.snapshot()})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// spanStats summarizes spans by name: total duration and call count.
type spanStats map[string]struct {
	total time.Duration
	n     int
}

func summarize(spans []Span) spanStats {
	st := spanStats{}
	for _, s := range spans {
		e := st[s.Name]
		e.total += s.dur()
		e.n++
		st[s.Name] = e
	}
	return st
}

// perCall returns the mean duration of the named spans in milliseconds.
func (st spanStats) perCall(names ...string) float64 {
	var total time.Duration
	n := 0
	for _, name := range names {
		total += st[name].total
		n += st[name].n
	}
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

// total returns the summed duration of the named spans.
func (st spanStats) total(names ...string) time.Duration {
	var total time.Duration
	for _, name := range names {
		total += st[name].total
	}
	return total
}

// coverageMin returns, over the spans named top, the smallest fraction of
// a span's interval that the union of its direct children covers — how
// much of an op the per-call spans account for.
func coverageMin(spans []Span, top string) float64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lowest := 1.0
	seen := false
	for _, s := range spans {
		if s.Name != top || s.End <= s.Start {
			continue
		}
		seen = true
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		if f := float64(covered) / float64(s.End-s.Start); f < lowest {
			lowest = f
		}
	}
	if !seen {
		return 0
	}
	return lowest
}
