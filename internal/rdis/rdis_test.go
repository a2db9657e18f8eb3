package rdis

import (
	"aegis/internal/xrand"
	"errors"
	"testing"
	"testing/quick"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

func TestGeometry(t *testing.T) {
	cases := []struct{ n, rows, cols int }{
		{256, 16, 16},
		{512, 32, 16},
		{64, 8, 8},
		{128, 16, 8},
	}
	for _, c := range cases {
		rows, cols := Geometry(c.n)
		if rows != c.rows || cols != c.cols {
			t.Errorf("Geometry(%d) = %d×%d, want %d×%d", c.n, rows, cols, c.rows, c.cols)
		}
		if rows*cols != c.n {
			t.Errorf("Geometry(%d) does not tile the block", c.n)
		}
	}
}

func TestOverheadMatchesPaperQuotes(t *testing.T) {
	// §3.2: RDIS-3 overhead is 25 % of a 256-bit block and 19 % of a
	// 512-bit block.
	if got := OverheadBits(16, 16); got != 65 { // ≈ 64 = 25 % of 256
		t.Errorf("OverheadBits(16,16) = %d, want 65", got)
	}
	if got := OverheadBits(32, 16); got != 97 { // ≈ 19 % of 512
		t.Errorf("OverheadBits(32,16) = %d, want 97", got)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(512, 10, 10, 3, nil); err == nil {
		t.Error("non-tiling matrix accepted")
	}
	if _, err := New(512, 32, 16, 0, nil); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestWriteReadNoFaults(t *testing.T) {
	f := MustFactory(512, 3, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	s := f.New()
	rng := xrand.New(1)
	for i := 0; i < 10; i++ {
		data := bitvec.Random(512, rng)
		if err := s.Write(blk, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !s.Read(blk, nil).Equal(data) {
			t.Fatalf("read %d differs", i)
		}
	}
}

func TestSingleFaultLevel1(t *testing.T) {
	f := MustFactory(256, 3, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(256)
	s := f.New()
	blk.InjectFault(33, true)
	data := bitvec.New(256) // W fault
	if err := s.Write(blk, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !s.Read(blk, nil).Equal(data) {
		t.Fatal("read differs")
	}
}

func TestThreeFaultGuarantee(t *testing.T) {
	// The RDIS paper (and the Aegis paper's comparison) guarantees
	// recovery of 3 faults for RDIS-3.
	f := MustFactory(256, 3, failcache.Perfect{})
	rng := xrand.New(5)
	for trial := 0; trial < 60; trial++ {
		blk := pcm.NewImmortalBlock(256)
		s := f.New()
		for _, p := range rng.Perm(256)[:3] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		for w := 0; w < 10; w++ {
			data := bitvec.Random(256, rng)
			if err := s.Write(blk, data); err != nil {
				t.Fatalf("trial %d: RDIS-3 failed with 3 faults: %v", trial, err)
			}
			if !s.Read(blk, nil).Equal(data) {
				t.Fatalf("trial %d: read differs", trial)
			}
		}
	}
}

func TestRecoversManyFaultsSoftly(t *testing.T) {
	// RDIS usually recovers far more than 3 faults (its soft FTC); a
	// scattered 10-fault set should mostly survive.
	f := MustFactory(512, 3, failcache.Perfect{})
	rng := xrand.New(7)
	ok := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		blk := pcm.NewImmortalBlock(512)
		s := f.New()
		for _, p := range rng.Perm(512)[:10] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		alive := true
		for w := 0; w < 5 && alive; w++ {
			if err := s.Write(blk, bitvec.Random(512, rng)); err != nil {
				alive = false
			}
		}
		if alive {
			ok++
		}
	}
	if ok < trials/2 {
		t.Fatalf("RDIS-3 survived only %d/%d 10-fault trials", ok, trials)
	}
}

func TestDepthLimitKillsDenseBlocks(t *testing.T) {
	// Saturating a corner of the matrix with mixed stuck values defeats
	// a depth-3 recursion.
	f := MustFactory(256, 3, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(256)
	s := f.New()
	rng := xrand.New(9)
	for _, p := range rng.Perm(256)[:120] {
		blk.InjectFault(p, rng.Intn(2) == 0)
	}
	dead := false
	for w := 0; w < 10; w++ {
		if err := s.Write(blk, bitvec.Random(256, rng)); err != nil {
			if !errors.Is(err, scheme.ErrUnrecoverable) {
				t.Fatalf("unexpected error: %v", err)
			}
			dead = true
			break
		}
	}
	if !dead {
		t.Fatal("RDIS-3 survived 120 mixed faults; failure path never exercised")
	}
}

func TestDeeperRecursionBeatsShallower(t *testing.T) {
	rng := xrand.New(11)
	f1 := MustFactory(256, 1, failcache.Perfect{})
	f3 := MustFactory(256, 3, failcache.Perfect{})
	ok1, ok3 := 0, 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		positions := rng.Perm(256)[:8]
		vals := make([]bool, len(positions))
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
		}
		run := func(s scheme.Scheme) bool {
			blk := pcm.NewImmortalBlock(256)
			for i, p := range positions {
				blk.InjectFault(p, vals[i])
			}
			r := xrand.New(int64(trial))
			for w := 0; w < 6; w++ {
				if err := s.Write(blk, bitvec.Random(256, r)); err != nil {
					return false
				}
			}
			return true
		}
		if run(f1.New()) {
			ok1++
		}
		if run(f3.New()) {
			ok3++
		}
	}
	if ok3 <= ok1 {
		t.Fatalf("RDIS-3 survivors (%d) not above RDIS-1 (%d)", ok3, ok1)
	}
}

// Property: whenever Write succeeds, Read returns the written data.
func TestPropRoundTrip(t *testing.T) {
	f := MustFactory(256, 3, failcache.Perfect{})
	prop := func(seed int64) bool {
		rng := xrand.New(seed)
		blk := pcm.NewImmortalBlock(256)
		s := f.New()
		for _, p := range rng.Perm(256)[:rng.Intn(14)] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		for w := 0; w < 8; w++ {
			data := bitvec.Random(256, rng)
			if err := s.Write(blk, data); err != nil {
				return true
			}
			if !s.Read(blk, nil).Equal(data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRDISWrite8Faults(b *testing.B) {
	f := MustFactory(512, 3, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	rng := xrand.New(1)
	for _, p := range rng.Perm(512)[:8] {
		blk.InjectFault(p, rng.Intn(2) == 0)
	}
	s := f.New()
	data := make([]*bitvec.Vector, 16)
	for i := range data {
		data[i] = bitvec.Random(512, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(blk, data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMetadataAccessors(t *testing.T) {
	f := MustFactory(512, 3, failcache.Perfect{})
	if f.Name() != "RDIS-3" || f.BlockBits() != 512 {
		t.Fatalf("factory metadata: %s %d", f.Name(), f.BlockBits())
	}
	if f.OverheadBits() != 97 {
		t.Fatalf("factory overhead = %d", f.OverheadBits())
	}
	s := f.New().(*RDIS)
	if s.Name() != "RDIS-3" || s.OverheadBits() != 97 {
		t.Fatalf("instance metadata: %s %d", s.Name(), s.OverheadBits())
	}
	if got := s.OpStats(); got.Requests != 0 {
		t.Fatalf("fresh OpStats = %+v", got)
	}
	blk := pcm.NewImmortalBlock(512)
	if err := s.Write(blk, bitvec.New(512)); err != nil {
		t.Fatal(err)
	}
	st := s.OpStats()
	if st.Requests != 1 || st.RawWrites != 1 || st.VerifyReads != 1 {
		t.Fatalf("OpStats after clean write = %+v", st)
	}
}

func TestFactoryErrors(t *testing.T) {
	if _, err := NewFactory(512, 0, failcache.Perfect{}); err == nil {
		t.Fatal("zero depth accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustFactory did not panic")
		}
	}()
	MustFactory(512, 0, failcache.Perfect{})
}

func TestDiscoveryWithFiniteCache(t *testing.T) {
	// A cold direct-mapped cache forces RDIS to discover faults via
	// verification reads, exercising the merge/record path.
	cache := failcache.NewDirectMapped(64)
	f := MustFactory(256, 3, cache)
	blk := pcm.NewImmortalBlock(256)
	blk.InjectFault(10, true)
	blk.InjectFault(77, false)
	s := f.New()
	rng := xrand.New(21)
	for i := 0; i < 8; i++ {
		data := bitvec.Random(256, rng)
		if err := s.Write(blk, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !s.Read(blk, nil).Equal(data) {
			t.Fatalf("read %d differs", i)
		}
	}
}

// TestRefusedDeathSkipsRawWrite pins why RDIS's extra writes per
// request can be negative: the Write that kills a block is refused by
// computeParity from faults already known, so it counts a request but
// issues no physical write.  Under the paper's request-scoped wear no
// cell dies mid-request, so every earlier Write took exactly one raw
// write and the block ends at RawWrites − Requests = −1.
func TestRefusedDeathSkipsRawWrite(t *testing.T) {
	rng := xrand.New(3)
	blk := pcm.NewBlock(512, dist.Normal{MeanLife: 200, CoV: 0.25}, rng)
	s := MustFactory(512, 3, failcache.Perfect{}).New().(*RDIS)
	data := bitvec.New(512)
	for w := 0; ; w++ {
		if w > 100000 {
			t.Fatal("block never died")
		}
		bitvec.RandomInto(data, rng)
		before := s.OpStats()
		blk.BeginRequest()
		err := s.Write(blk, data)
		blk.EndRequest()
		if err == nil {
			continue
		}
		after := s.OpStats()
		if after.Requests != before.Requests+1 || after.RawWrites != before.RawWrites {
			t.Fatalf("refused write: requests %d→%d, raw writes %d→%d; want +1 and unchanged",
				before.Requests, after.Requests, before.RawWrites, after.RawWrites)
		}
		if extra := after.RawWrites - after.Requests; extra != -1 {
			t.Fatalf("RawWrites − Requests = %d at death, want -1", extra)
		}
		return
	}
}
