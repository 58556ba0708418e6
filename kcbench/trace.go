package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call. ID is the request id: the batch sequence index
// for sends and the closed loop's per-batch flushes, the query index for
// queries, the tenant for creates and end-of-drive flushes. Parent
// indexes the enclosing span in the trace (-1: a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced rounds call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a root-level span and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.add(span{Name: name, Parent: -1, Start: now.Sub(t.origin).Nanoseconds()})
}

// end closes the span begin opened.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].End = time.Since(t.origin).Nanoseconds()
	t.mu.Unlock()
}

// span records a finished call under parent.
func (t *tracer) span(name string, parent, id int, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// durations returns the length in ms of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
