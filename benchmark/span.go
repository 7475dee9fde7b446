package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the span that caused it (-1 for a root); ID is the batch or
// request the call belongs to.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ID      int    `json:"id"`
}

// tracer keeps the spans of one traced run in memory until the run
// ends. A nil tracer records nothing, so the untraced run pays one nil
// check per call site. Not safe for concurrent use: only the caller
// goroutine records spans.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)), Parent: parent, ID: id})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].EndNS = int64(time.Since(t.t0))
	}
}

// add records a span whose duration was measured elsewhere (the
// engine's own per-stage stopwatches), laid at offset from its parent's
// start; it returns the offset where the next sibling starts.
func (t *tracer) add(name string, parent, id int, offset, dur time.Duration) time.Duration {
	if t == nil || dur <= 0 {
		return offset
	}
	start := t.spans[parent].StartNS + int64(offset)
	t.spans = append(t.spans, span{Name: name, StartNS: start, EndNS: start + int64(dur), Parent: parent, ID: id})
	return offset + dur
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover. Children of one parent are recorded in start
// order, so overlap between siblings is removed with one running end.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	coveredTo := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNS - s.StartNS
		coveredTo[i] = s.StartNS
	}
	for _, s := range spans {
		p := s.Parent
		if p < 0 {
			continue
		}
		lo, hi := s.StartNS, s.EndNS
		if lo < coveredTo[p] {
			lo = coveredTo[p]
		}
		if hi > spans[p].EndNS {
			hi = spans[p].EndNS
		}
		if hi > lo {
			self[p] -= hi - lo
			coveredTo[p] = hi
		}
	}
	return self
}

// coverage is the share of the named spans' time that their children
// account for: 1 - Σ self ÷ Σ duration.
func coverage(spans []span, name string) float64 {
	self := selfTimes(spans)
	var total, uncovered int64
	for i, s := range spans {
		if s.Name == name {
			total += s.EndNS - s.StartNS
			uncovered += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(uncovered)/float64(total)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
