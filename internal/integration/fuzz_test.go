package integration

import (
	"testing"

	"aegis/internal/aegisrw"
	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/rdis"
	"aegis/internal/safer"
	"aegis/internal/scheme"
	"aegis/internal/serve"
	"aegis/internal/xrand"
)

// fuzzSpecs covers every scheme family serve.ResolveScheme accepts, at
// paper-sized parameters for 512-bit blocks.  The unprotected baseline
// is appended by schemeUnderFuzz.
var fuzzSpecs = []string{
	"aegis:23",
	"aegis:61",
	"aegis-p:23:4",
	"aegis-rw:31",
	"aegis-rw-p:23:4",
	"ecp:6",
	"safer:32",
	"safer-cache:32",
	"rdis:3",
}

// finiteCacheArms are the fail-cache schemes of fuzzSpecs on an 8-entry
// direct-mapped cache, which serve.ResolveScheme never builds: evicted
// faults must be rediscovered by verification, the write loop's path
// through its request-local fault list.
var finiteCacheArms = []func() scheme.Factory{
	func() scheme.Factory { return aegisrw.MustRWFactory(512, 31, failcache.NewDirectMapped(8)) },
	func() scheme.Factory { return aegisrw.MustRWPFactory(512, 23, 4, failcache.NewDirectMapped(8)) },
	func() scheme.Factory { return safer.MustCachedFactory(512, 32, failcache.NewDirectMapped(8)) },
	func() scheme.Factory { return rdis.MustFactory(512, 3, failcache.NewDirectMapped(8)) },
}

// schemeUnderFuzz maps a fuzz byte onto fuzzSpecs, None, then
// finiteCacheArms.
func schemeUnderFuzz(t *testing.T, pick uint8) scheme.Factory {
	i := int(pick) % (len(fuzzSpecs) + 1 + len(finiteCacheArms))
	if i > len(fuzzSpecs) {
		return finiteCacheArms[i-len(fuzzSpecs)-1]()
	}
	if i == len(fuzzSpecs) {
		return scheme.NoneFactory{Bits: 512}
	}
	f, err := serve.ResolveScheme(fuzzSpecs[i], 512)
	if err != nil {
		t.Fatalf("%s: %v", fuzzSpecs[i], err)
	}
	return f
}

// FuzzSchemeWriteRead drives every scheme's write path over an immortal
// block with fuzz-chosen stuck-at faults and data.  Faults arrive one
// per byte triple (position high, position low, stuck value), each
// followed by a write, so schemes see their fault sets grow the way a
// wearing block does.  Any successful write must read back exactly; a
// refused write ends the run, as it ends a simulated block.
func FuzzSchemeWriteRead(f *testing.F) {
	for pick := 0; pick <= len(fuzzSpecs); pick++ {
		f.Add(uint8(pick), []byte{0, 5, 1, 1, 7, 0, 0, 66, 1, 1, 200, 0}, uint64(0xdeadbeef), uint64(0x12345678))
	}
	// Sixteen faults overflow the 8-entry cache, so later writes
	// rediscover evicted faults.
	var many []byte
	for k := 0; k < 16; k++ {
		pos := 31*k + 11
		many = append(many, byte(pos>>8), byte(pos), byte(k&1))
	}
	for arm := range finiteCacheArms {
		pick := uint8(len(fuzzSpecs) + 1 + arm)
		f.Add(pick, []byte{0, 5, 1, 1, 7, 0, 0, 66, 1, 1, 200, 0}, uint64(0xdeadbeef), uint64(0x12345678))
		f.Add(pick, many, uint64(0x0f0f0f0f), uint64(0xa5a5a5a5))
	}
	f.Fuzz(func(t *testing.T, pick uint8, faults []byte, dataLo, dataHi uint64) {
		const n = 512
		fac := schemeUnderFuzz(t, pick)
		s := fac.New()
		blk := pcm.NewImmortalBlock(n)
		data := bitvec.NewFromWords(n, []uint64{
			dataLo, dataHi, dataLo ^ dataHi, ^dataLo, ^dataHi, dataLo &^ dataHi, dataHi &^ dataLo, dataLo | dataHi,
		})
		rng := xrand.New(int64(dataLo ^ dataHi))
		for w := 0; w <= len(faults)/3 && w <= 64; w++ {
			if w > 0 {
				pos := (int(faults[3*w-3])<<8 | int(faults[3*w-2])) % n
				blk.InjectFault(pos, faults[3*w-1]&1 == 1)
				bitvec.RandomInto(data, rng)
			}
			if err := s.Write(blk, data); err != nil {
				return // unrecoverable fault pattern: acceptable
			}
			if !s.Read(blk, nil).Equal(data) {
				t.Fatalf("%s: read differs after successful write %d (%d faults)", fac.Name(), w, blk.FaultCount())
			}
		}
	})
}
