package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one request
// share Trace (the request id the client sends in reqIDHeader); Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// reqIDHeader carries the request id from the client span to the handler
// span.
const reqIDHeader = "X-Perfbench-Request"

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced passes run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// newID reserves a span id.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// start opens a probe span under parent and returns its closer.
func (t *tracer) start(name string, parent int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.newID()
	begin := time.Now()
	return id, func() {
		t.record(span{Trace: 0, ID: id, Parent: parent, Name: name, Start: t.since(begin), End: t.since(time.Now())})
	}
}

// selfTime is the aggregate of one span name.
type selfTime struct {
	name  string
	count int
	total time.Duration // summed span durations
	self  time.Duration // summed durations minus the time covered by children
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its children cover; children of one
// parent do not overlap (they run on the parent's goroutine, or are the
// one handler span of a client request).
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64, len(t.spans))
	byID := make(map[int64]span, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	for _, s := range t.spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				child[s.Parent] += hi - lo
			}
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{name: s.Name}
			agg[s.Name] = a
		}
		a.count++
		a.total += time.Duration(s.End - s.Start)
		a.self += time.Duration(s.End - s.Start - child[s.ID])
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// write stores every span as one JSON line under dir and returns the
// file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace writes the spans and prints the self time of each span
// name.
func finishTrace(t *tracer, rep *report, file string) error {
	path, err := t.write(traceDir, file)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.text("spans written to %s", path)
	for _, st := range t.selfTimes() {
		rep.text("span %-36s n=%-7d total %10.3f ms  self %10.3f ms  self/span %9.2f us",
			st.name, st.count, ms(st.total), ms(st.self), us(st.self)/float64(st.count))
	}
	return nil
}

// traceDir is where traced runs leave their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/trace"
