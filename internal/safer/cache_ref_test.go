package safer

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
	"aegis/internal/xrand"
)

// refCached is a reference SAFERN-cache: the per-subset group
// projection and the full 2^m mask store the cached scheme used before
// it moved to the address-XOR test and on-demand group masks, and its
// own copy of the write–verify–record loop from before that loop moved
// into failcache.Writer.  It borrows Cached's partition state (fields,
// inversion bits, codec) but keeps its own fail-cache view, fault
// lists, counters and tracer, so nothing of the loop under test is
// shared with the reference.
type refCached struct {
	*Cached
	masks      []*bitvec.Vector
	masksBuilt bool

	view       failcache.View
	phys, errs *bitvec.Vector
	wrong      []bool
	faults     []failcache.Fault
	local      []failcache.Fault
	errPos     []int
	ops        scheme.OpStats
	tr         scheme.Tracer
}

func newRefCached(base *Cached, view failcache.View) *refCached {
	return &refCached{Cached: base, view: view, phys: bitvec.New(base.n), errs: bitvec.New(base.n)}
}

func (c *refCached) OpStats() scheme.OpStats { return c.ops }

func (c *refCached) SetTracer(t scheme.Tracer) { c.tr = t }

func (c *refCached) trace(e scheme.TraceEvent) {
	if c.tr != nil {
		c.tr.TraceEvent(e)
	}
}

func appendFault(s []failcache.Fault, f failcache.Fault) []failcache.Fault {
	for _, g := range s {
		if g.Pos == f.Pos {
			return s
		}
	}
	return append(s, f)
}

func (c *refCached) group(x int, fields []int) int {
	g := 0
	for i, pos := range fields {
		g |= ((x >> uint(pos)) & 1) << uint(i)
	}
	return g
}

func (c *refCached) selectFields(faults []failcache.Fault, wrong []bool) ([]int, bool) {
	if len(faults) == 0 {
		return c.fields, true
	}
	if c.subset == nil {
		c.subset = make([]int, c.m)
	}
	subset := c.subset[:c.m]
	for i := range subset {
		subset[i] = i
	}
	for {
		if c.fieldsValid(subset, faults, wrong) {
			return subset, true
		}
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

func (c *refCached) fieldsValid(fields []int, faults []failcache.Fault, wrong []bool) bool {
	for i := range faults {
		if !wrong[i] {
			continue
		}
		for j := range faults {
			if wrong[j] {
				continue
			}
			if c.group(faults[i].Pos, fields) == c.group(faults[j].Pos, fields) {
				return false
			}
		}
	}
	return true
}

func (c *refCached) rebuildMasks() {
	if c.masks == nil {
		c.masks = make([]*bitvec.Vector, 1<<uint(c.m))
		for g := range c.masks {
			c.masks[g] = bitvec.New(c.n)
		}
	}
	populated := 1 << uint(len(c.fields))
	addr := addrBitMasks(c.n)
	for g, m := range c.masks[:populated] {
		m.Fill(true)
		for i, pos := range c.fields {
			if g>>uint(i)&1 == 1 {
				m.AndInto(addr[pos])
			} else {
				m.AndNotInto(addr[pos])
			}
		}
	}
	for _, m := range c.masks[populated:] {
		m.Zero()
	}
	c.masksBuilt = true
}

func (c *refCached) Write(blk *pcm.Block, data *bitvec.Vector) error {
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
			c.rebuildMasks()
		} else if !c.masksBuilt {
			c.rebuildMasks()
		}
		c.inv.Zero()
		for i, f := range faults {
			if wrong[i] {
				c.inv.Set(c.group(f.Pos, c.fields), true)
			}
		}
		c.phys.CopyFrom(data)
		if c.inv.Any() {
			c.ops.Inversions++
			if c.tr != nil {
				c.trace(scheme.TraceEvent{Kind: scheme.TraceInversion, Groups: c.inv.PopCount(), Faults: len(faults)})
			}
		}
		c.invGroups = c.inv.AppendOnes(c.invGroups[:0])
		for _, g := range c.invGroups {
			c.phys.XorInto(c.masks[g])
		}
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

func (c *refCached) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	if !c.inv.Any() {
		return dst
	}
	if !c.masksBuilt {
		c.rebuildMasks()
	}
	c.invGroups = c.inv.AppendOnes(c.invGroups[:0])
	for _, g := range c.invGroups {
		dst.XorInto(c.masks[g])
	}
	return dst
}

type eventLog []scheme.TraceEvent

func (l *eventLog) TraceEvent(e scheme.TraceEvent) { *l = append(*l, e) }

// TestCachedLockstepWithReference drives Cached and the reference side
// by side on identical blocks, faults and data, and requires identical
// observable behaviour after every write.  Half the trials use a small
// direct-mapped fail cache, so faults are also found by verification.
func TestCachedLockstepWithReference(t *testing.T) {
	for _, geo := range []struct{ n, groups int }{{512, 32}, {512, 64}, {512, 128}, {64, 16}} {
		geo := geo
		t.Run(fmt.Sprintf("%dbit-%dgroups", geo.n, geo.groups), func(t *testing.T) {
			t.Parallel()
			trials := 60
			if testing.Short() {
				trials = 20
			}
			rng := xrand.New(int64(geo.n + geo.groups))
			for trial := 0; trial < trials; trial++ {
				lockstepTrial(t, geo.n, geo.groups, trial%2 == 1, rng)
			}
		})
	}
}

func lockstepTrial(t *testing.T, n, groups int, finite bool, rng *xrand.Rand) {
	t.Helper()
	view := func() failcache.View {
		if finite {
			return failcache.NewDirectMapped(8).View(0)
		}
		return failcache.Perfect{}.View(0)
	}
	c, err := NewCached(n, groups, view())
	if err != nil {
		t.Fatal(err)
	}
	base, _ := NewCached(n, groups, nil)
	ref := newRefCached(base, view())
	var gotLog, wantLog eventLog
	c.SetTracer(&gotLog)
	ref.SetTracer(&wantLog)

	blkC, blkR := pcm.NewImmortalBlock(n), pcm.NewImmortalBlock(n)
	perm := rng.Perm(n)
	inject := func(k int) {
		for ; k > 0 && len(perm) > 0; k-- {
			v := rng.Intn(2) == 0
			blkC.InjectFault(perm[0], v)
			blkR.InjectFault(perm[0], v)
			perm = perm[1:]
		}
	}
	inject(rng.Intn(n/16 + 1))
	for w := 0; w < 24; w++ {
		inject(rng.Intn(3))
		data := bitvec.Random(n, rng)
		errC, errR := c.Write(blkC, data), ref.Write(blkR, data)
		if !errors.Is(errC, errR) || !errors.Is(errR, errC) {
			t.Fatalf("write %d: error %v, reference %v", w, errC, errR)
		}
		if !blkC.Read(nil).Equal(blkR.Read(nil)) {
			t.Fatalf("write %d: block contents differ", w)
		}
		if c.OpStats() != ref.OpStats() {
			t.Fatalf("write %d: OpStats %+v, reference %+v", w, c.OpStats(), ref.OpStats())
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			t.Fatalf("write %d: trace %v, reference %v", w, gotLog, wantLog)
		}
		if !c.MarshalBits().Equal(ref.MarshalBits()) {
			t.Fatalf("write %d: metadata differs", w)
		}
		got := c.Read(blkC, nil)
		if !got.Equal(ref.Read(blkR, nil)) {
			t.Fatalf("write %d: Read differs", w)
		}
		if errC != nil {
			return
		}
		if !got.Equal(data) {
			t.Fatalf("write %d: Read differs from the data written", w)
		}
	}
}
