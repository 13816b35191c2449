package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one trial or request share
// a group id; parent links a span to the span that caused it (0: none).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Group  int           `json:"group"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	// counts accumulates per-layer work counters next to the spans.
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, group int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name, Start: time.Since(t.epoch)})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.epoch) }

// dur is the duration of closed span id.
func (t *tracer) dur(id int) time.Duration { return t.spans[id-1].End - t.spans[id-1].Start }

// do records f as one span.
func (t *tracer) do(name string, parent, group int, f func() error) error {
	id := t.begin(name, parent, group)
	err := f()
	t.end(id)
	return err
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover. Children never overlap here: every traced call
// runs on one goroutine.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - child[s.ID]
	}
	return self
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
