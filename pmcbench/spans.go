package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer keeps the spans the benchmark records around each layer call,
// in memory, and writes them out as one Chrome trace when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	next  int // last span id handed out
	spans []spanRecord
}

type spanRecord struct {
	name       string
	id, parent int
	lane       int
	start, end time.Duration // since t0
}

// span is a started span; end records it.
type span struct {
	tr     *tracer
	name   string
	id     int
	parent int
	lane   int
	start  time.Time
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now()}
}

// start opens a span under parent (nil for a root span) on the given
// lane (the worker or connection the call ran on).
func (t *tracer) start(name string, parent *span, lane int) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := &span{tr: t, name: name, id: id, lane: lane, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
		if lane == 0 {
			s.lane = parent.lane
		}
	}
	return s
}

// end closes the span and returns its duration (0 for a nil span).
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	t := s.tr
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{
		name: s.name, id: s.id, parent: s.parent, lane: s.lane,
		start: s.start.Sub(t.t0), end: now.Sub(t.t0),
	})
	t.mu.Unlock()
	return now.Sub(s.start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations, in seconds, of every span with the
// given name, in the order they ended.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// sum is the total duration in seconds of the spans with the given name.
func (t *tracer) sum(name string) float64 {
	var total float64
	for _, d := range t.durations(name) {
		total += d
	}
	return total
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps); every event carries its span id, its
// parent's id and the run id.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type args struct {
		SpanID   int    `json:"span_id"`
		ParentID int    `json:"parent_id,omitempty"`
		RunID    string `json:"run_id"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms", TraceEvents: make([]event, 0, len(t.spans))}
	for _, s := range t.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: args{SpanID: s.id, ParentID: s.parent, RunID: t.runID},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
