package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.  Spans of one
// job (or one pass) share a trace ID; Parent is the span that caused
// this one (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Trace  int64         `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.  A nil *tracer
// records nothing, so untraced passes run the same code as traced ones.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  map[int64]int // span ID → index of a span not yet ended
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[int64]int)}
}

// start opens a span under parent (0 = a new root whose ID is also its
// trace ID) and returns its ID.
func (t *tracer) start(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.traceOf(parent, id), Name: name, Start: now})
	t.open[id] = len(t.spans) - 1
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[id]; ok {
		t.spans[i].End = now
		delete(t.open, id)
	}
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.traceOf(parent, id),
		Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// traceOf returns the trace ID a new span inherits; callers hold mu.
func (t *tracer) traceOf(parent, id int64) int64 {
	if parent <= 0 || int(parent) > len(t.spans) {
		return id
	}
	return t.spans[parent-1].Trace
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for i, s := range t.spans {
		if _, open := t.open[int64(i+1)]; !open {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.  Overlapping children
// (concurrent calls under one parent) are counted once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// byName groups span durations (and self times) by span name, in
// milliseconds.
func byName(spans []span) (dur, self map[string][]float64) {
	st := selfTimes(spans)
	dur, self = make(map[string][]float64), make(map[string][]float64)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], ms(s.dur()))
		self[s.Name] = append(self[s.Name], ms(st[s.ID]))
	}
	return dur, self
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
