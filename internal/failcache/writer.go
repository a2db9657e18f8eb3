package failcache

import (
	"sync/atomic"

	"aegis/internal/bitvec"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// Encoder is the scheme-specific step of a Writer pass.
type Encoder interface {
	// Encode fills phys with the cell values that store data over the
	// pass's known faults and returns "", or returns the scheme's
	// cause of death (a scheme.Cause* value) when no encoding masks
	// them.  It counts its own repartitions and inversions and traces
	// them.
	Encode(faults []Fault, data, phys *bitvec.Vector) string
}

// Writer is the write–verify–record loop of the schemes that consult a
// fail cache before writing (Aegis-rw, Aegis-rw-p, SAFER-cache, RDIS).
// Each pass merges the faults the cache knows with those this request
// found, lets the scheme encode, writes and verifies; every mismatching
// cell is recorded in the cache and the next pass retries.  A scheme
// keeps one Writer per instance and supplies only its Encoder.
type Writer struct {
	// Ops is the scheme's operation count.  The Writer counts Requests,
	// RawWrites, VerifyReads and Salvages; the Encoder the rest.
	Ops scheme.OpStats
	// Tr receives decision events when set.
	Tr scheme.Tracer

	view  View
	cache Provider       // with ids: the source of a fresh view on Reset
	ids   *atomic.Uint64 // the factory's block-ID counter, or nil

	phys, errs *bitvec.Vector
	faults     []Fault // merged known + locally discovered, per pass
	local      []Fault
	errPos     []int
}

// NewWriter returns a Writer for n-bit blocks that consults view for
// the life of the instance.
func NewWriter(n int, view View) Writer {
	return Writer{view: view, phys: bitvec.New(n), errs: bitvec.New(n)}
}

// UseBlockIDs makes w consult cache as the block whose ID ids hands out
// next, and draw a new ID on every Reset, so a reset instance sees a
// finite cache exactly as one its factory just built would.
func (w *Writer) UseBlockIDs(cache Provider, ids *atomic.Uint64) {
	w.cache, w.ids = cache, ids
	w.view = cache.View(ids.Add(1) - 1)
}

// Reset clears the counters and the tracer and, when w draws block IDs,
// takes the next one.
func (w *Writer) Reset() {
	if w.ids != nil {
		w.view = w.cache.View(w.ids.Add(1) - 1)
	}
	w.Ops = scheme.OpStats{}
	w.Tr = nil
}

// Trace reports a decision event when a tracer is attached.
func (w *Writer) Trace(e scheme.TraceEvent) {
	if w.Tr != nil {
		w.Tr.TraceEvent(e)
	}
}

// Write stores data in blk with the cell values enc chooses.  It gives
// up with a CauseIterationLimit death after blockBits+1 passes.
func (w *Writer) Write(blk *pcm.Block, data *bitvec.Vector, enc Encoder) error {
	w.Ops.Requests++
	// w.local holds faults seen during this write request, keyed by
	// position.  With a perfect cache this stays empty; with a finite
	// cache it prevents a pair of slot-colliding faults from evicting
	// each other between verification passes forever.
	w.local = w.local[:0]
	// A write normally completes in one pass; extra passes happen only
	// when a cell dies during this very write (or, with a finite
	// cache, when a fault was evicted and must be rediscovered).
	for iter := 0; iter <= w.phys.Len(); iter++ {
		w.faults = w.view.AppendKnown(blk, w.faults[:0])
		for _, f := range w.local {
			w.faults = appendFault(w.faults, f)
		}
		if cause := enc.Encode(w.faults, data, w.phys); cause != "" {
			w.Trace(scheme.TraceEvent{Kind: scheme.TraceDeath, Faults: len(w.faults), Cause: cause})
			return scheme.ErrUnrecoverable
		}
		blk.WriteRaw(w.phys)
		w.Ops.RawWrites++
		blk.Verify(w.phys, w.errs)
		w.Ops.VerifyReads++
		if !w.errs.Any() {
			if iter > 0 {
				w.Ops.Salvages++
				w.Trace(scheme.TraceEvent{Kind: scheme.TraceSalvage, Passes: iter + 1, Faults: len(w.faults)})
			}
			return nil
		}
		w.errPos = w.errs.AppendOnes(w.errPos[:0])
		for _, p := range w.errPos {
			f := Fault{Pos: p, Val: !w.phys.Get(p)}
			w.view.Record(f)
			w.local = appendFault(w.local, f)
		}
	}
	w.Trace(scheme.TraceEvent{Kind: scheme.TraceDeath, Faults: len(w.local), Cause: scheme.CauseIterationLimit})
	return scheme.ErrUnrecoverable
}

// appendFault adds f unless a fault at the same position is present
// (cached entries win on duplicates; the values agree anyway — stuck
// values never change).
func appendFault(s []Fault, f Fault) []Fault {
	for _, g := range s {
		if g.Pos == f.Pos {
			return s
		}
	}
	return append(s, f)
}

// AppendWrong appends, for each fault, whether it is stuck-at-Wrong for
// data (its stuck value differs from the datum at its position) and
// returns the extended slice.
func AppendWrong(buf []bool, faults []Fault, data *bitvec.Vector) []bool {
	for _, f := range faults {
		buf = append(buf, f.Val != data.Get(f.Pos))
	}
	return buf
}
