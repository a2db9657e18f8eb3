// Package safer implements the SAFER stuck-at-fault recovery scheme
// (Seong et al., MICRO 2010), the primary partition-and-inversion
// baseline the Aegis paper compares against.
//
// SAFER partitions a 2^n-bit data block by selecting up to m bit
// positions of the in-block cell address to form a "partition vector"
// (the Aegis paper's term): the group of a cell is the projection of its
// address onto the selected positions, so m selected positions induce at
// most 2^m = N groups.  When a newly detected fault collides with an
// existing one (equal projections), SAFER expands the vector with a bit
// position at which the two addresses differ — which always exists and
// always separates exactly that pair while keeping all other pairs
// separated (adding a position only refines the partition).  The vector
// can only grow, so with m positions the scheme guarantees m+1 faults
// (hard FTC) and fails at the first collision it cannot resolve.
//
// SAFERCache is the cache-assisted form the paper evaluates as
// "SAFERN-cache": with every fault's position and stuck value known
// before the write, the controller re-selects the best m positions from
// scratch on every write and only needs to separate stuck-at-Wrong from
// stuck-at-Right cells, letting groups hold multiple same-type faults.
package safer

import (
	"fmt"
	"sync"

	"aegis/internal/bitvec"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// addrMaskCache shares, per block size, the address-bit pattern masks:
// addrBitMasks(n)[p] is the mask of cells whose in-block address has
// bit p set.  Group masks are intersections of these patterns (and
// their complements), which turns per-cell projection loops into a few
// word-level ANDs.  The vectors are immutable once published.
var addrMaskCache sync.Map // block bits -> []*bitvec.Vector

func addrBitMasks(n int) []*bitvec.Vector {
	if v, ok := addrMaskCache.Load(n); ok {
		return v.([]*bitvec.Vector)
	}
	masks := make([]*bitvec.Vector, log2(n))
	for p := range masks {
		m := bitvec.New(n)
		for x := 0; x < n; x++ {
			if x>>uint(p)&1 == 1 {
				m.Set(x, true)
			}
		}
		masks[p] = m
	}
	v, _ := addrMaskCache.LoadOrStore(n, masks)
	return v.([]*bitvec.Vector)
}

// fillGroupMask sets m to the member mask of group g under the given
// partition vector: the cells whose address projects onto g.  addr is
// addrBitMasks(m.Len()).
func fillGroupMask(m *bitvec.Vector, addr []*bitvec.Vector, fields []int, g int) {
	m.Fill(true)
	for i, pos := range fields {
		if g>>uint(i)&1 == 1 {
			m.AndInto(addr[pos])
		} else {
			m.AndNotInto(addr[pos])
		}
	}
}

// SAFER is the per-block state of the cache-less SAFER-N scheme.
type SAFER struct {
	n        int // block bits (power of two)
	addrBits int // log2 n
	m        int // maximum partition-vector size (N = 2^m groups)

	fields []int          // selected address bit positions, in selection order
	inv    *bitvec.Vector // inversion bits, one per group (2^m)

	// Group member masks for the current fields.  masks is a prefix of
	// maskStore (the persistent allocation, grown on demand and reused
	// across rebuilds); masksBuilt is false after a field change.
	masks      []*bitvec.Vector
	maskStore  []*bitvec.Vector
	masksBuilt bool

	faultPos   []int
	faultVal   []bool
	errPos     []int
	invGroups  []int
	phys, errs *bitvec.Vector

	ops scheme.OpStats
	tr  scheme.Tracer
}

var _ scheme.Scheme = (*SAFER)(nil)

// New returns a fresh SAFER instance for an n-bit block with at most
// nGroups = 2^m groups.  n and nGroups must be powers of two with
// nGroups ≤ n.
func New(n, nGroups int) (*SAFER, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("safer: block size %d is not a power of two", n)
	}
	if nGroups <= 0 || nGroups&(nGroups-1) != 0 || nGroups > n {
		return nil, fmt.Errorf("safer: group count %d invalid for %d-bit block", nGroups, n)
	}
	return &SAFER{
		n:        n,
		addrBits: log2(n),
		m:        log2(nGroups),
		inv:      bitvec.New(nGroups),
		phys:     bitvec.New(n),
		errs:     bitvec.New(n),
	}, nil
}

func log2(n int) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}

// Name implements scheme.Scheme.
func (s *SAFER) Name() string { return fmt.Sprintf("SAFER%d", 1<<s.m) }

// OverheadBits implements scheme.Scheme: m position fields of
// ⌈log₂ log₂ n⌉ bits each, 2^m inversion bits, and a ⌈log₂(m+1)⌉-bit
// counter of how many fields are in use.  This reproduces the SAFER row
// of the paper's Table 1 exactly.
func (s *SAFER) OverheadBits() int { return OverheadBits(s.n, 1<<s.m) }

// OverheadBits is the SAFER-N cost formula for an n-bit block.
func OverheadBits(n, nGroups int) int {
	m := log2(nGroups)
	return m*plane.CeilLog2(log2(n)) + nGroups + plane.CeilLog2(m+1)
}

// Fields returns the selected address-bit positions (for tests).
func (s *SAFER) Fields() []int { return append([]int(nil), s.fields...) }

// OpStats implements scheme.OpReporter.
func (s *SAFER) OpStats() scheme.OpStats { return s.ops }

// SetTracer implements scheme.Traceable.
func (s *SAFER) SetTracer(t scheme.Tracer) { s.tr = t }

// Reset implements scheme.Resettable: empty partition vector, cleared
// inversion bits, zeroed counters, no tracer — the state New returns.
// The mask store keeps its allocation; masks are rebuilt on demand.
func (s *SAFER) Reset() {
	s.fields = s.fields[:0]
	s.inv.Zero()
	s.masksBuilt = false
	s.ops = scheme.OpStats{}
	s.tr = nil
}

// trace reports a decision event when a tracer is attached.
func (s *SAFER) trace(e scheme.TraceEvent) {
	if s.tr != nil {
		s.tr.TraceEvent(e)
	}
}

// group projects a cell address onto the selected positions.
func (s *SAFER) group(x int) int {
	g := 0
	for i, pos := range s.fields {
		g |= ((x >> uint(pos)) & 1) << uint(i)
	}
	return g
}

// addFieldFor expands the partition vector with a position at which the
// two colliding addresses differ.  Among the candidates it picks the one
// leaving the fewest colliding pairs over all currently known faults —
// the greedy selection of the SAFER paper's dynamic partitioning.  It
// reports false when the vector is full (block death); a differing
// unselected position otherwise always exists, because equal projections
// with all differing bits selected is a contradiction.
func (s *SAFER) addFieldFor(x1, x2 int) bool {
	if len(s.fields) >= s.m {
		return false
	}
	diff := x1 ^ x2
	best, bestCollisions := -1, -1
	for pos := 0; pos < s.addrBits; pos++ {
		if diff>>uint(pos)&1 == 0 {
			continue
		}
		used := false
		for _, f := range s.fields {
			if f == pos {
				used = true
				break
			}
		}
		if used {
			continue
		}
		s.fields = append(s.fields, pos)
		c := s.collidingPairs()
		s.fields = s.fields[:len(s.fields)-1]
		if bestCollisions < 0 || c < bestCollisions {
			best, bestCollisions = pos, c
		}
	}
	if best < 0 {
		// Unreachable for genuinely colliding pairs; be defensive.
		return false
	}
	s.fields = append(s.fields, best)
	s.masksBuilt = false
	s.ops.Repartitions++
	// From/To report the partition-vector size: SAFER re-partitions by
	// growing the selected-position set, never by swapping a slope.
	s.trace(scheme.TraceEvent{Kind: scheme.TraceRepartition, From: len(s.fields) - 1, To: len(s.fields), Faults: len(s.faultPos)})
	return true
}

// collidingPairs counts known-fault pairs sharing a group under the
// current fields.
func (s *SAFER) collidingPairs() int {
	sel := fieldsFingerprint(s.fields)
	c := 0
	for i := 0; i < len(s.faultPos); i++ {
		for j := i + 1; j < len(s.faultPos); j++ {
			if (s.faultPos[i]^s.faultPos[j])&sel == 0 {
				c++
			}
		}
	}
	return c
}

// separateKnownFaults grows the partition vector until all known faults
// have distinct projections.  It reports false when the vector budget is
// exhausted first.
func (s *SAFER) separateKnownFaults() bool {
	for {
		sel := fieldsFingerprint(s.fields)
		collision := false
		for i := 0; i < len(s.faultPos) && !collision; i++ {
			for j := i + 1; j < len(s.faultPos); j++ {
				if (s.faultPos[i]^s.faultPos[j])&sel == 0 {
					if !s.addFieldFor(s.faultPos[i], s.faultPos[j]) {
						return false
					}
					collision = true
					break
				}
			}
		}
		if !collision {
			return true
		}
	}
}

// groupMasks returns the member masks of the current partition,
// rebuilding them after a field change.
func (s *SAFER) groupMasks() []*bitvec.Vector {
	if s.masksBuilt {
		return s.masks
	}
	want := 1 << uint(len(s.fields))
	for len(s.maskStore) < want {
		s.maskStore = append(s.maskStore, bitvec.New(s.n))
	}
	s.masks = s.maskStore[:want]
	addr := addrBitMasks(s.n)
	for g, m := range s.masks {
		fillGroupMask(m, addr, s.fields, g)
	}
	s.masksBuilt = true
	return s.masks
}

// buildPhysical computes the physical image of data under the current
// fields and inversion bits.
func (s *SAFER) buildPhysical(data *bitvec.Vector) {
	s.phys.CopyFrom(data)
	if !s.inv.Any() {
		return
	}
	masks := s.groupMasks()
	s.invGroups = s.inv.AppendOnes(s.invGroups[:0])
	for _, g := range s.invGroups {
		if g < len(masks) {
			s.phys.XorInto(masks[g])
		}
	}
}

// Write implements scheme.Scheme, mirroring the discovery loop of base
// Aegis: write, verify, accumulate revealed faults, grow the partition
// vector on collisions, set inversion bits, rewrite.
func (s *SAFER) Write(blk *pcm.Block, data *bitvec.Vector) error {
	if data.Len() != s.n {
		panic(fmt.Sprintf("safer: write of %d bits into %d-bit scheme", data.Len(), s.n))
	}
	s.ops.Requests++
	s.faultPos = s.faultPos[:0]
	s.faultVal = s.faultVal[:0]
	for iter := 0; iter <= s.n; iter++ {
		s.buildPhysical(data)
		if s.inv.Any() {
			s.ops.Inversions++
			if s.tr != nil {
				s.trace(scheme.TraceEvent{Kind: scheme.TraceInversion, Groups: s.inv.PopCount(), Faults: len(s.faultPos)})
			}
		}
		blk.WriteRaw(s.phys)
		s.ops.RawWrites++
		blk.Verify(s.phys, s.errs)
		s.ops.VerifyReads++
		if !s.errs.Any() {
			if iter > 0 {
				s.ops.Salvages++
				s.trace(scheme.TraceEvent{Kind: scheme.TraceSalvage, Passes: iter + 1, Faults: len(s.faultPos)})
			}
			return nil
		}
		grew := false
		s.errPos = s.errs.AppendOnes(s.errPos[:0])
		for _, p := range s.errPos {
			if s.known(p) {
				continue
			}
			s.faultPos = append(s.faultPos, p)
			s.faultVal = append(s.faultVal, !s.phys.Get(p))
			grew = true
		}
		if !grew {
			s.trace(scheme.TraceEvent{Kind: scheme.TraceDeath, Faults: len(s.faultPos), Cause: scheme.CauseStuckVerify})
			return scheme.ErrUnrecoverable
		}
		if !s.separateKnownFaults() {
			s.trace(scheme.TraceEvent{Kind: scheme.TraceDeath, Faults: len(s.faultPos), Cause: scheme.CauseVectorFull})
			return scheme.ErrUnrecoverable
		}
		s.inv.Zero()
		for i, p := range s.faultPos {
			if data.Get(p) != s.faultVal[i] {
				s.inv.Set(s.group(p), true)
			}
		}
	}
	s.trace(scheme.TraceEvent{Kind: scheme.TraceDeath, Faults: len(s.faultPos), Cause: scheme.CauseIterationLimit})
	return scheme.ErrUnrecoverable
}

func (s *SAFER) known(p int) bool {
	for _, q := range s.faultPos {
		if q == p {
			return true
		}
	}
	return false
}

// Read implements scheme.Scheme.
func (s *SAFER) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	if !s.inv.Any() {
		return dst
	}
	masks := s.groupMasks()
	s.invGroups = s.inv.AppendOnes(s.invGroups[:0])
	for _, g := range s.invGroups {
		if g < len(masks) {
			dst.XorInto(masks[g])
		}
	}
	return dst
}

// Factory builds SAFER-N instances.
type Factory struct {
	N      int // block bits
	Groups int
}

// NewFactory returns a SAFER-N factory after validating the parameters.
func NewFactory(n, nGroups int) (*Factory, error) {
	if _, err := New(n, nGroups); err != nil {
		return nil, err
	}
	return &Factory{N: n, Groups: nGroups}, nil
}

// MustFactory is NewFactory that panics on error.
func MustFactory(n, nGroups int) *Factory {
	f, err := NewFactory(n, nGroups)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *Factory) Name() string { return fmt.Sprintf("SAFER%d", f.Groups) }

// BlockBits implements scheme.Factory.
func (f *Factory) BlockBits() int { return f.N }

// OverheadBits implements scheme.Factory.
func (f *Factory) OverheadBits() int { return OverheadBits(f.N, f.Groups) }

// New implements scheme.Factory.
func (f *Factory) New() scheme.Scheme {
	s, err := New(f.N, f.Groups)
	if err != nil {
		panic(err) // validated at factory construction
	}
	return s
}

var _ scheme.Factory = (*Factory)(nil)
