// Package aegisrw implements the two fail-cache-assisted Aegis variants
// of §2.4 of the paper.
//
// Aegis-rw knows, before a write, where every stuck cell is and what its
// stuck value is (from a fail cache).  Classifying each fault as
// stuck-at-Wrong (stuck value ≠ datum) or stuck-at-Right lets a group
// hold arbitrarily many faults of the same kind: inverting the group
// fixes all of its W faults at once.  The slope therefore only needs to
// separate W faults from R faults, and at most f_W·f_R slopes can be
// invalid — the collision-slope lookup of plane.CollidingSlope is the
// software form of the n×n×⌈log₂B⌉ ROM the paper describes.
//
// Aegis-rw-p additionally replaces the B-bit inversion vector with p
// group pointers.  By the pigeonhole principle either the groups that
// need inversion or the groups that must NOT be inverted number at most
// ⌊f/2⌋, so recording the smaller side (plus a whole-block-inversion
// mode bit) suffices.
package aegisrw

import (
	"fmt"
	"sync/atomic"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// RW is the per-block state of Aegis-rw.
type RW struct {
	layout *plane.Layout
	w      failcache.Writer
	slope  int
	inv    *bitvec.Vector

	excluded []bool
	wrong    []bool
}

var _ scheme.Scheme = (*RW)(nil)

// NewRW returns a fresh Aegis-rw instance for one block laid out by l,
// consulting the given fail-cache view.
func NewRW(l *plane.Layout, view failcache.View) *RW {
	return &RW{
		layout:   l,
		w:        failcache.NewWriter(l.N, view),
		inv:      bitvec.New(l.B),
		excluded: make([]bool, l.B),
	}
}

// Name implements scheme.Scheme.
func (a *RW) Name() string { return "Aegis-rw " + a.layout.String() }

// OverheadBits implements scheme.Scheme.  Aegis-rw with the same A×B
// formation costs the same as base Aegis (§2.4): slope counter plus
// inversion vector.  The fail cache is shared chip-level SRAM and is not
// part of the per-block budget, exactly as the paper accounts it.
func (a *RW) OverheadBits() int { return a.layout.OverheadBits() }

// Slope returns the current slope counter value.
func (a *RW) Slope() int { return a.slope }

// OpStats implements scheme.OpReporter.
func (a *RW) OpStats() scheme.OpStats { return a.w.Ops }

// SetTracer implements scheme.Traceable.
func (a *RW) SetTracer(t scheme.Tracer) { a.w.Tr = t }

// Reset implements scheme.Resettable.  An instance built by a factory
// also takes a fresh block ID (see failcache.Writer.Reset).
func (a *RW) Reset() {
	a.w.Reset()
	a.slope = 0
	a.inv.Zero()
}

// excludeSlopes sets excluded[k] for every slope k under which some
// group would hold both a W and an R fault, and clears the rest.
// wrong[i] is the W/R classification of faults[i].
func excludeSlopes(l *plane.Layout, excluded []bool, faults []failcache.Fault, wrong []bool) {
	for i := range excluded {
		excluded[i] = false
	}
	// Only W–R pairs exclude a slope, and each pair excludes exactly
	// one (Theorem 2) — or none, when the pair shares a rectangle
	// column.
	for i := range faults {
		if !wrong[i] {
			continue
		}
		for j := range faults {
			if wrong[j] {
				continue
			}
			if k, ok := l.CollidingSlope(faults[i].Pos, faults[j].Pos); ok {
				excluded[k] = true
			}
		}
	}
}

// findSlope returns a slope under which no group mixes W and R faults,
// searching from the current slope, or ok=false.  wrong[i] is the W/R
// classification of faults[i] for the data being written.
func (a *RW) findSlope(faults []failcache.Fault, wrong []bool) (int, bool) {
	excludeSlopes(a.layout, a.excluded, faults, wrong)
	for d := 0; d < a.layout.B; d++ {
		k := (a.slope + d) % a.layout.B
		if !a.excluded[k] {
			return k, true
		}
	}
	return 0, false
}

// Write implements scheme.Scheme.
func (a *RW) Write(blk *pcm.Block, data *bitvec.Vector) error {
	if data.Len() != a.layout.N {
		panic(fmt.Sprintf("aegisrw: write of %d bits into %s scheme", data.Len(), a.layout))
	}
	return a.w.Write(blk, data, a)
}

// Encode implements failcache.Encoder: it moves to the first slope from
// the current one that keeps W and R faults apart and inverts every
// group holding a W fault.
func (a *RW) Encode(faults []failcache.Fault, data, phys *bitvec.Vector) string {
	a.wrong = failcache.AppendWrong(a.wrong[:0], faults, data)
	k, ok := a.findSlope(faults, a.wrong)
	if !ok {
		return scheme.CauseNoSlope
	}
	if k != a.slope {
		a.w.Ops.Repartitions++
		a.w.Trace(scheme.TraceEvent{Kind: scheme.TraceRepartition, From: a.slope, To: k, Faults: len(faults)})
	}
	a.slope = k
	a.inv.Zero()
	for i, f := range faults {
		if a.wrong[i] {
			a.inv.Set(a.layout.Group(f.Pos, a.slope), true)
		}
	}
	phys.CopyFrom(data)
	if a.inv.Any() {
		a.w.Ops.Inversions++
		if a.w.Tr != nil {
			a.w.Trace(scheme.TraceEvent{Kind: scheme.TraceInversion, Groups: a.inv.PopCount(), Faults: len(faults)})
		}
	}
	a.layout.XorGroups(phys, a.inv, a.slope)
	return ""
}

// Read implements scheme.Scheme.
func (a *RW) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	a.layout.XorGroups(dst, a.inv, a.slope)
	return dst
}

// Recoverable reports whether a fault classification (positions plus W/R
// labels) admits a valid slope.  Exposed for tests and analyses.
func (a *RW) Recoverable(faults []failcache.Fault, wrong []bool) bool {
	_, ok := a.findSlope(faults, wrong)
	return ok
}

// RWFactory builds Aegis-rw instances.
type RWFactory struct {
	L     *plane.Layout
	Cache failcache.Provider

	nextID atomic.Uint64
}

// NewRWFactory returns a factory for n-bit blocks with parameter B using
// the given fail cache.
func NewRWFactory(n, b int, cache failcache.Provider) (*RWFactory, error) {
	l, err := plane.NewLayout(n, b)
	if err != nil {
		return nil, err
	}
	return &RWFactory{L: l, Cache: cache}, nil
}

// MustRWFactory is NewRWFactory that panics on error.
func MustRWFactory(n, b int, cache failcache.Provider) *RWFactory {
	f, err := NewRWFactory(n, b, cache)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *RWFactory) Name() string { return "Aegis-rw " + f.L.String() }

// BlockBits implements scheme.Factory.
func (f *RWFactory) BlockBits() int { return f.L.N }

// OverheadBits implements scheme.Factory.
func (f *RWFactory) OverheadBits() int { return f.L.OverheadBits() }

// New implements scheme.Factory.
func (f *RWFactory) New() scheme.Scheme {
	s := NewRW(f.L, nil)
	s.w.UseBlockIDs(f.Cache, &f.nextID)
	return s
}

var _ scheme.Factory = (*RWFactory)(nil)
