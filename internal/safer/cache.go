package safer

import (
	"fmt"
	"sync/atomic"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// Cached is the per-block state of SAFERN-cache: SAFER with a fail cache
// that reveals every fault (position and stuck value) before the write.
//
// Two things change relative to the cache-less scheme.  First, because
// the partition fields are part of the per-block bookkeeping that is
// rewritten on every write anyway, the controller is free to re-select
// the best m positions from scratch for each write rather than only ever
// growing the vector.  Second, with stuck values known, a group may hold
// any number of same-type faults; only stuck-at-Wrong and stuck-at-Right
// cells must not share a group.  Both relaxations are what let
// "SAFERN-cache" tolerate far more faults in the paper's Figure 8.
//
// Two cells share a group exactly when their addresses agree on every
// selected position, so a candidate position set is tested with one AND
// per W/R fault pair, (posW ^ posR) & fieldsFingerprint(set) == 0.  No
// group masks are kept: Write and Read build the member mask of each
// inverted group when they apply it.
type Cached struct {
	n        int
	addrBits int
	m        int
	view     failcache.View
	// renew, when set by the factory, hands Reset a fresh fail-cache
	// view (and with it a fresh block ID), so a reused instance is
	// indistinguishable from one the factory just built.
	renew func() failcache.View

	fields []int
	inv    *bitvec.Vector
	addr   []*bitvec.Vector // addrBitMasks(n), shared and read-only

	phys, errs, mask *bitvec.Vector
	subset           []int
	wrong            []bool
	faults           []failcache.Fault // merged cached + locally discovered, per pass
	local            []failcache.Fault
	errPos           []int
	invGroups        []int

	ops scheme.OpStats
	tr  scheme.Tracer
}

var _ scheme.Scheme = (*Cached)(nil)

// NewCached returns a fresh SAFERN-cache instance.
func NewCached(n, nGroups int, view failcache.View) (*Cached, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("safer: block size %d is not a power of two", n)
	}
	if nGroups <= 0 || nGroups&(nGroups-1) != 0 || nGroups > n {
		return nil, fmt.Errorf("safer: group count %d invalid for %d-bit block", nGroups, n)
	}
	c := &Cached{
		n:        n,
		addrBits: log2(n),
		m:        log2(nGroups),
		view:     view,
		inv:      bitvec.New(nGroups),
		addr:     addrBitMasks(n),
		phys:     bitvec.New(n),
		errs:     bitvec.New(n),
		mask:     bitvec.New(n),
	}
	if c.m > c.addrBits {
		c.m = c.addrBits
	}
	return c, nil
}

// Name implements scheme.Scheme.
func (c *Cached) Name() string { return fmt.Sprintf("SAFER%d-cache", 1<<c.m) }

// OverheadBits implements scheme.Scheme; per-block cost is identical to
// the cache-less SAFER-N — the fail cache is shared chip-level SRAM, as
// the paper accounts it.
func (c *Cached) OverheadBits() int { return OverheadBits(c.n, 1<<c.m) }

// OpStats implements scheme.OpReporter.
func (c *Cached) OpStats() scheme.OpStats { return c.ops }

// SetTracer implements scheme.Traceable.
func (c *Cached) SetTracer(t scheme.Tracer) { c.tr = t }

// Reset implements scheme.Resettable.  When the factory installed a
// renew hook the instance also acquires a fresh fail-cache view, so a
// finite cache sees a new block ID exactly as it would for a freshly
// constructed instance.
func (c *Cached) Reset() {
	if c.renew != nil {
		c.view = c.renew()
	}
	c.fields = c.fields[:0]
	c.inv.Zero()
	c.ops = scheme.OpStats{}
	c.tr = nil
}

// trace reports a decision event when a tracer is attached.
func (c *Cached) trace(e scheme.TraceEvent) {
	if c.tr != nil {
		c.tr.TraceEvent(e)
	}
}

// fieldsFingerprint compresses a position set into a bitmask: the mask
// under which two addresses share a group exactly when their XOR has no
// bit in it, and the From/To form repartition events report for field
// re-selections.
func fieldsFingerprint(fields []int) int {
	fp := 0
	for _, pos := range fields {
		fp |= 1 << uint(pos)
	}
	return fp
}

// group projects a cell address onto the selected positions.
func (c *Cached) group(x int) int {
	g := 0
	for i, pos := range c.fields {
		g |= ((x >> uint(pos)) & 1) << uint(i)
	}
	return g
}

// selectFields enumerates all m-subsets of the address bits and returns
// the first one under which no group holds both a stuck-at-Wrong and a
// stuck-at-Right fault, that is, under which every W/R address pair
// differs somewhere inside the subset's fingerprint.  ok=false means no
// position set works and the block is dead.  With 9 address bits the
// search space is at most C(9,⌊9/2⌋) = 126 subsets, so exhaustive
// enumeration is what real controller logic could afford too.
func (c *Cached) selectFields(faults []failcache.Fault, wrong []bool) ([]int, bool) {
	if len(faults) == 0 {
		return c.fields, true
	}
	if c.subset == nil {
		c.subset = make([]int, c.m)
	}
	subset := c.subset[:c.m]
	// Initialize to the lexicographically first m-subset {0,1,…,m-1}.
	for i := range subset {
		subset[i] = i
	}
	for {
		if c.fieldsValid(fieldsFingerprint(subset), faults, wrong) {
			return subset, true
		}
		// Advance to the next m-subset of {0,…,addrBits-1}.
		i := c.m - 1
		for i >= 0 && subset[i] == c.addrBits-c.m+i {
			i--
		}
		if i < 0 {
			return nil, false
		}
		subset[i]++
		for j := i + 1; j < c.m; j++ {
			subset[j] = subset[j-1] + 1
		}
	}
}

// fieldsValid reports whether the position set with fingerprint sel
// separates W from R faults.
func (c *Cached) fieldsValid(sel int, faults []failcache.Fault, wrong []bool) bool {
	for i := range faults {
		if !wrong[i] {
			continue
		}
		for j := range faults {
			if !wrong[j] && (faults[i].Pos^faults[j].Pos)&sel == 0 {
				return false
			}
		}
	}
	return true
}

// invertGroups XORs into v the member mask of every group whose
// inversion bit is set.  Groups at or past 1<<len(fields) are empty, but
// a decoded metadata payload may still set their bits.
func (c *Cached) invertGroups(v *bitvec.Vector) {
	populated := 1 << uint(len(c.fields))
	c.invGroups = c.inv.AppendOnes(c.invGroups[:0])
	for _, g := range c.invGroups {
		if g >= populated {
			break
		}
		fillGroupMask(c.mask, c.addr, c.fields, g)
		v.XorInto(c.mask)
	}
}

// Write implements scheme.Scheme.
func (c *Cached) Write(blk *pcm.Block, data *bitvec.Vector) error {
	if data.Len() != c.n {
		panic(fmt.Sprintf("safer: write of %d bits into %d-bit scheme", data.Len(), c.n))
	}
	c.ops.Requests++
	c.local = c.local[:0]
	for iter := 0; iter <= c.n; iter++ {
		c.faults = c.view.AppendKnown(blk, c.faults[:0])
		for _, f := range c.local {
			c.faults = appendFault(c.faults, f)
		}
		faults := c.faults
		wrong := c.wrong[:0]
		for _, f := range faults {
			wrong = append(wrong, f.Val != data.Get(f.Pos))
		}
		c.wrong = wrong
		fields, ok := c.selectFields(faults, wrong)
		if !ok {
			c.trace(scheme.TraceEvent{Kind: scheme.TraceDeath, Faults: len(faults), Cause: scheme.CauseNoFieldSet})
			return scheme.ErrUnrecoverable
		}
		if !equalInts(fields, c.fields) {
			c.ops.Repartitions++
			if c.tr != nil {
				c.trace(scheme.TraceEvent{
					Kind: scheme.TraceRepartition,
					From: fieldsFingerprint(c.fields), To: fieldsFingerprint(fields),
					Faults: len(faults),
				})
			}
			c.fields = append(c.fields[:0], fields...)
		}
		c.inv.Zero()
		for i, f := range faults {
			if wrong[i] {
				c.inv.Set(c.group(f.Pos), true)
			}
		}
		c.phys.CopyFrom(data)
		if c.inv.Any() {
			c.ops.Inversions++
			if c.tr != nil {
				c.trace(scheme.TraceEvent{Kind: scheme.TraceInversion, Groups: c.inv.PopCount(), Faults: len(faults)})
			}
		}
		c.invertGroups(c.phys)
		blk.WriteRaw(c.phys)
		c.ops.RawWrites++
		blk.Verify(c.phys, c.errs)
		c.ops.VerifyReads++
		if !c.errs.Any() {
			if iter > 0 {
				c.ops.Salvages++
				c.trace(scheme.TraceEvent{Kind: scheme.TraceSalvage, Passes: iter + 1, Faults: len(faults)})
			}
			return nil
		}
		c.errPos = c.errs.AppendOnes(c.errPos[:0])
		for _, p := range c.errPos {
			f := failcache.Fault{Pos: p, Val: !c.phys.Get(p)}
			c.view.Record(f)
			c.local = appendFault(c.local, f)
		}
	}
	c.trace(scheme.TraceEvent{Kind: scheme.TraceDeath, Faults: len(c.local), Cause: scheme.CauseIterationLimit})
	return scheme.ErrUnrecoverable
}

// Read implements scheme.Scheme.
func (c *Cached) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	c.invertGroups(dst)
	return dst
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// appendFault adds f unless a fault at the same position is present
// (cached entries win on duplicates; the values agree anyway — stuck
// values never change).
func appendFault(s []failcache.Fault, f failcache.Fault) []failcache.Fault {
	for _, g := range s {
		if g.Pos == f.Pos {
			return s
		}
	}
	return append(s, f)
}

// CachedFactory builds SAFERN-cache instances.
type CachedFactory struct {
	N      int
	Groups int
	Cache  failcache.Provider

	nextID atomic.Uint64
}

// NewCachedFactory returns a SAFERN-cache factory.
func NewCachedFactory(n, nGroups int, cache failcache.Provider) (*CachedFactory, error) {
	if _, err := NewCached(n, nGroups, nil); err != nil {
		return nil, err
	}
	return &CachedFactory{N: n, Groups: nGroups, Cache: cache}, nil
}

// MustCachedFactory is NewCachedFactory that panics on error.
func MustCachedFactory(n, nGroups int, cache failcache.Provider) *CachedFactory {
	f, err := NewCachedFactory(n, nGroups, cache)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *CachedFactory) Name() string { return fmt.Sprintf("SAFER%d-cache", f.Groups) }

// BlockBits implements scheme.Factory.
func (f *CachedFactory) BlockBits() int { return f.N }

// OverheadBits implements scheme.Factory.
func (f *CachedFactory) OverheadBits() int { return OverheadBits(f.N, f.Groups) }

// New implements scheme.Factory.
func (f *CachedFactory) New() scheme.Scheme {
	c, err := NewCached(f.N, f.Groups, f.Cache.View(f.nextID.Add(1)-1))
	if err != nil {
		panic(err)
	}
	c.renew = func() failcache.View { return f.Cache.View(f.nextID.Add(1) - 1) }
	return c
}

var _ scheme.Factory = (*CachedFactory)(nil)
