// Package failcache models the SRAM "fail cache" of §2.4: a structure
// that tells a write request, before the write happens, where a block's
// stuck-at faults are and what their stuck values are.
//
// The paper's evaluation only uses the idealized form ("a sufficiently
// large cache", i.e. every fault is always known); that is Perfect here.
// DirectMapped is a finite direct-mapped variant provided for ablation
// studies: lookups can miss, in which case a scheme falls back to
// discovery through verification reads.  Writer is the write loop
// shared by the schemes that consult a fail cache.
package failcache

import (
	"fmt"

	"aegis/internal/pcm"
)

// Fault is one known stuck-at cell.  It is an alias of pcm.CellFault so
// pcm.(*Block).AppendFaults can fill fail-cache scratch buffers without
// conversion.
type Fault = pcm.CellFault

// View is a block's window into a fail cache.
type View interface {
	// AppendKnown appends the faults of blk the cache knows about to
	// buf in ascending position order and returns the extended slice.
	// Hot paths pass buf[:0] of a reused scratch slice.
	AppendKnown(blk *pcm.Block, buf []Fault) []Fault
	// Record tells the cache about a fault discovered by a
	// verification read.
	Record(f Fault)
}

// Provider hands out per-block views.
type Provider interface {
	// Name identifies the cache model.
	Name() string
	// View returns blockID's window into the cache.
	View(blockID uint64) View
}

// Perfect is the idealized fail cache: it knows every fault of every
// block, always.
type Perfect struct{}

// Name implements Provider.
func (Perfect) Name() string { return "perfect-cache" }

// View implements Provider.
func (Perfect) View(uint64) View { return perfectView{} }

type perfectView struct{}

// AppendKnown reads the ground truth from the block itself — the
// definition of a cache that never misses.
func (perfectView) AppendKnown(blk *pcm.Block, buf []Fault) []Fault {
	return blk.AppendFaults(buf)
}

// Record is a no-op: a perfect cache already knows.
func (perfectView) Record(Fault) {}

// DirectMapped is a finite direct-mapped fail cache shared by all blocks
// of one device.  Each entry holds one fault keyed by (blockID, position);
// colliding inserts evict.  It is not safe for concurrent use; simulation
// workers each own their device and cache.
type DirectMapped struct {
	entries []dmEntry
}

type dmEntry struct {
	valid   bool
	blockID uint64
	fault   Fault
}

// NewDirectMapped returns a direct-mapped cache with the given number of
// entries (rounded up to a power of two).
func NewDirectMapped(entries int) *DirectMapped {
	if entries < 1 {
		entries = 1
	}
	size := 1
	for size < entries {
		size <<= 1
	}
	return &DirectMapped{entries: make([]dmEntry, size)}
}

// Name implements Provider.
func (c *DirectMapped) Name() string {
	return fmt.Sprintf("dm-cache-%d", len(c.entries))
}

// View implements Provider.
func (c *DirectMapped) View(blockID uint64) View {
	return &dmView{cache: c, blockID: blockID}
}

// Len returns the capacity in entries.
func (c *DirectMapped) Len() int { return len(c.entries) }

func (c *DirectMapped) index(blockID uint64, pos int) int {
	h := blockID*0x9e3779b97f4a7c15 + uint64(pos)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return int(h & uint64(len(c.entries)-1))
}

type dmView struct {
	cache   *DirectMapped
	blockID uint64
	scratch []Fault // reused ground-truth buffer for AppendKnown
}

// AppendKnown appends the subset of blk's faults currently resident in
// the cache.  Misses are possible: a fault evicted by another block's
// insert is unknown until rediscovered.  It does not allocate in steady
// state (the view-owned ground-truth scratch grows once, then is
// reused).
func (v *dmView) AppendKnown(blk *pcm.Block, buf []Fault) []Fault {
	v.scratch = blk.AppendFaults(v.scratch[:0])
	for _, f := range v.scratch {
		e := v.cache.entries[v.cache.index(v.blockID, f.Pos)]
		if e.valid && e.blockID == v.blockID && e.fault.Pos == f.Pos {
			buf = append(buf, e.fault)
		}
	}
	return buf
}

// Record inserts the fault, evicting whatever shared its slot.
func (v *dmView) Record(f Fault) {
	idx := v.cache.index(v.blockID, f.Pos)
	v.cache.entries[idx] = dmEntry{valid: true, blockID: v.blockID, fault: f}
}
