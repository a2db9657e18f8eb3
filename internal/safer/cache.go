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
	w        failcache.Writer

	fields []int
	inv    *bitvec.Vector
	addr   []*bitvec.Vector // addrBitMasks(n), shared and read-only

	mask      *bitvec.Vector
	subset    []int
	wrong     []bool
	invGroups []int
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
		w:        failcache.NewWriter(n, view),
		inv:      bitvec.New(nGroups),
		addr:     addrBitMasks(n),
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
func (c *Cached) OpStats() scheme.OpStats { return c.w.Ops }

// SetTracer implements scheme.Traceable.
func (c *Cached) SetTracer(t scheme.Tracer) { c.w.Tr = t }

// Reset implements scheme.Resettable.  An instance built by a factory
// also takes a fresh block ID (see failcache.Writer.Reset).
func (c *Cached) Reset() {
	c.w.Reset()
	c.fields = c.fields[:0]
	c.inv.Zero()
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
	return c.w.Write(blk, data, c)
}

// Encode implements failcache.Encoder: it re-selects the partition
// fields and inverts every group holding a W fault.
func (c *Cached) Encode(faults []failcache.Fault, data, phys *bitvec.Vector) string {
	c.wrong = failcache.AppendWrong(c.wrong[:0], faults, data)
	fields, ok := c.selectFields(faults, c.wrong)
	if !ok {
		return scheme.CauseNoFieldSet
	}
	if !equalInts(fields, c.fields) {
		c.w.Ops.Repartitions++
		if c.w.Tr != nil {
			c.w.Trace(scheme.TraceEvent{
				Kind: scheme.TraceRepartition,
				From: fieldsFingerprint(c.fields), To: fieldsFingerprint(fields),
				Faults: len(faults),
			})
		}
		c.fields = append(c.fields[:0], fields...)
	}
	c.inv.Zero()
	for i, f := range faults {
		if c.wrong[i] {
			c.inv.Set(c.group(f.Pos), true)
		}
	}
	phys.CopyFrom(data)
	if c.inv.Any() {
		c.w.Ops.Inversions++
		if c.w.Tr != nil {
			c.w.Trace(scheme.TraceEvent{Kind: scheme.TraceInversion, Groups: c.inv.PopCount(), Faults: len(faults)})
		}
	}
	c.invertGroups(phys)
	return ""
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
	c, err := NewCached(f.N, f.Groups, nil)
	if err != nil {
		panic(err)
	}
	c.w.UseBlockIDs(f.Cache, &f.nextID)
	return c
}

var _ scheme.Factory = (*CachedFactory)(nil)
