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

// RWP is the per-block state of Aegis-rw-p: Aegis-rw with the B-bit
// inversion vector replaced by at most P group pointers (§2.4).
//
// When the groups containing W faults fit in the pointer budget they are
// recorded directly and inverted ("direct" mode).  Otherwise, if the
// groups containing R faults fit, those are recorded and everything else
// is inverted ("complement" mode: the paper describes the equivalent
// read path as "invert the groups identified by the pointers, then
// invert the entire block").  The pigeonhole principle guarantees one of
// the two sides is at most ⌊f/2⌋ group-wise, but a fixed small P can
// still be exceeded — that soft failure mode is exactly what Figure 10
// sweeps.
type RWP struct {
	layout *plane.Layout
	w      failcache.Writer
	p      int

	slope      int
	complement bool  // true: pointers list the NOT-inverted groups
	pointers   []int // group IDs, ≤ P of them

	maskBuf          *bitvec.Vector
	excluded         []bool
	wrong            []bool
	wGroups, rGroups []int // distinct W/R group scratch for planSlope
}

var _ scheme.Scheme = (*RWP)(nil)

// NewRWP returns a fresh Aegis-rw-p instance with a budget of p group
// pointers.
func NewRWP(l *plane.Layout, view failcache.View, p int) *RWP {
	if p < 0 {
		panic(fmt.Sprintf("aegisrw: negative pointer budget %d", p))
	}
	return &RWP{
		layout:   l,
		w:        failcache.NewWriter(l.N, view),
		p:        p,
		pointers: make([]int, 0, p),
		maskBuf:  bitvec.New(l.N),
		excluded: make([]bool, l.B),
	}
}

// Name implements scheme.Scheme.
func (a *RWP) Name() string { return fmt.Sprintf("Aegis-rw-p %s p=%d", a.layout, a.p) }

// OverheadBits implements scheme.Scheme: a slope counter, p group
// pointers of ⌈log₂B⌉ bits, one mode bit (whole-block inversion) and one
// bit flagging whether all pointers are in use.
func (a *RWP) OverheadBits() int {
	return plane.CeilLog2(a.layout.B) + a.p*plane.CeilLog2(a.layout.B) + 2
}

// Pointers returns the currently recorded group pointers (for tests).
func (a *RWP) Pointers() []int { return append([]int(nil), a.pointers...) }

// Complement reports whether the scheme is in complement (whole-block
// inversion) mode.
func (a *RWP) Complement() bool { return a.complement }

// Slope returns the current slope counter value.
func (a *RWP) Slope() int { return a.slope }

// OpStats implements scheme.OpReporter.
func (a *RWP) OpStats() scheme.OpStats { return a.w.Ops }

// SetTracer implements scheme.Traceable.
func (a *RWP) SetTracer(t scheme.Tracer) { a.w.Tr = t }

// Reset implements scheme.Resettable.  An instance built by a factory
// also takes a fresh block ID (see failcache.Writer.Reset).
func (a *RWP) Reset() {
	a.w.Reset()
	a.slope = 0
	a.complement = false
	a.pointers = a.pointers[:0]
}

// planSlope finds, starting from the current slope, a slope that (a)
// separates W from R faults and (b) fits the pointer budget: the groups
// holding W faults number ≤ P, or the groups holding R faults number
// ≤ P.  It returns the slope, the pointer list and the mode.
func (a *RWP) planSlope(faults []failcache.Fault, wrong []bool) (k int, pointers []int, complement, ok bool) {
	excludeSlopes(a.layout, a.excluded, faults, wrong)
	for d := 0; d < a.layout.B; d++ {
		k = (a.slope + d) % a.layout.B
		if a.excluded[k] {
			continue
		}
		// Count distinct W-groups and R-groups under slope k.
		wGroups, rGroups := a.wGroups[:0], a.rGroups[:0]
		for i, f := range faults {
			g := a.layout.Group(f.Pos, k)
			if wrong[i] {
				if !containsInt(wGroups, g) {
					wGroups = append(wGroups, g)
				}
			} else if !containsInt(rGroups, g) {
				rGroups = append(rGroups, g)
			}
		}
		a.wGroups, a.rGroups = wGroups, rGroups
		if len(wGroups) <= a.p {
			return k, wGroups, false, true
		}
		if len(rGroups) <= a.p {
			return k, rGroups, true, true
		}
	}
	return 0, nil, false, false
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// invertedMask builds, into the shared scratch buffer, the block mask of
// cells stored inverted under the given slope/pointers/mode.
func (a *RWP) invertedMask(k int, pointers []int, complement bool) *bitvec.Vector {
	mask := a.maskBuf
	mask.Fill(complement)
	for _, g := range pointers {
		mask.XorInto(a.layout.GroupMask(g, k))
	}
	return mask
}

// Write implements scheme.Scheme.
func (a *RWP) Write(blk *pcm.Block, data *bitvec.Vector) error {
	if data.Len() != a.layout.N {
		panic(fmt.Sprintf("aegisrw: write of %d bits into %s scheme", data.Len(), a.layout))
	}
	return a.w.Write(blk, data, a)
}

// Encode implements failcache.Encoder: it plans a slope and pointer set
// within the budget and stores data with the pointed-to side inverted.
func (a *RWP) Encode(faults []failcache.Fault, data, phys *bitvec.Vector) string {
	a.wrong = failcache.AppendWrong(a.wrong[:0], faults, data)
	k, pointers, complement, ok := a.planSlope(faults, a.wrong)
	if !ok {
		// planSlope fails only when every W/R-separating slope
		// exceeds the pointer budget on both sides (or none exists).
		return scheme.CausePointerBudget
	}
	if k != a.slope {
		a.w.Ops.Repartitions++
		a.w.Trace(scheme.TraceEvent{Kind: scheme.TraceRepartition, From: a.slope, To: k, Faults: len(faults)})
	}
	a.slope = k
	a.pointers = append(a.pointers[:0], pointers...)
	a.complement = complement

	mask := a.invertedMask(k, pointers, complement)
	if mask.Any() {
		a.w.Ops.Inversions++
		a.w.Trace(scheme.TraceEvent{Kind: scheme.TraceInversion, Groups: len(pointers), Faults: len(faults)})
	}
	phys.Xor(data, mask)
	return ""
}

// Read implements scheme.Scheme.
func (a *RWP) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	mask := a.invertedMask(a.slope, a.pointers, a.complement)
	dst.Xor(dst, mask)
	return dst
}

// RWPFactory builds Aegis-rw-p instances.
type RWPFactory struct {
	L     *plane.Layout
	Cache failcache.Provider
	P     int

	nextID atomic.Uint64
}

// NewRWPFactory returns a factory for n-bit blocks with parameter B and a
// budget of p group pointers, using the given fail cache.
func NewRWPFactory(n, b, p int, cache failcache.Provider) (*RWPFactory, error) {
	l, err := plane.NewLayout(n, b)
	if err != nil {
		return nil, err
	}
	if p < 0 {
		return nil, fmt.Errorf("aegisrw: negative pointer budget %d", p)
	}
	return &RWPFactory{L: l, Cache: cache, P: p}, nil
}

// MustRWPFactory is NewRWPFactory that panics on error.
func MustRWPFactory(n, b, p int, cache failcache.Provider) *RWPFactory {
	f, err := NewRWPFactory(n, b, p, cache)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *RWPFactory) Name() string { return fmt.Sprintf("Aegis-rw-p %s p=%d", f.L, f.P) }

// BlockBits implements scheme.Factory.
func (f *RWPFactory) BlockBits() int { return f.L.N }

// OverheadBits implements scheme.Factory.
func (f *RWPFactory) OverheadBits() int {
	return plane.CeilLog2(f.L.B) + f.P*plane.CeilLog2(f.L.B) + 2
}

// New implements scheme.Factory.
func (f *RWPFactory) New() scheme.Scheme {
	s := NewRWP(f.L, nil, f.P)
	s.w.UseBlockIDs(f.Cache, &f.nextID)
	return s
}

var _ scheme.Factory = (*RWPFactory)(nil)
