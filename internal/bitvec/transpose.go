package bitvec

// Transpose64 transposes a 64×64 bit matrix in place: after the call,
// bit r of a[c] equals what bit c of a[r] was before.  Rows enter as
// per-lane data words (row l = trial-lane l) and leave as per-position
// lane words (row j = bit j of every lane): the layout of
// pcm.LaneBlock's transposed state.
//
// The routine is the recursive block swap of Hacker's Delight §7-3,
// phrased for this repository's LSB-first bit numbering (bit b of a row
// word is column b, matching bitvec.Vector): at step width j, every
// 2j×2j tile exchanges its two off-diagonal j×j sub-blocks — elements
// whose row index has the j bit clear and column index has it set swap
// with their mirror across the diagonal.  The mask selects the columns
// whose j bit is clear.  Six word-parallel steps replace the 4096
// single-bit moves of the naive transpose; the steps are unrolled so
// every shift is constant and every index is provably in range (the &63
// masks cost one AND but keep the tight loops free of bounds checks).
//
// Deprecated: its only remaining user is pcm.LaneBlock's test, which
// builds its reference images with it; it goes together with
// pcm.LaneBlock (DESIGN.md §13).
func Transpose64(a *[64]uint64) {
	for k := 0; k < 32; k++ {
		t := ((a[k] >> 32) ^ a[k+32]) & 0x00000000FFFFFFFF
		a[k] ^= t << 32
		a[k+32] ^= t
	}
	for base := 0; base < 64; base += 32 {
		for k := base; k < base+16; k++ {
			p, q := &a[k&63], &a[(k+16)&63]
			t := ((*p >> 16) ^ *q) & 0x0000FFFF0000FFFF
			*p ^= t << 16
			*q ^= t
		}
	}
	for base := 0; base < 64; base += 16 {
		for k := base; k < base+8; k++ {
			p, q := &a[k&63], &a[(k+8)&63]
			t := ((*p >> 8) ^ *q) & 0x00FF00FF00FF00FF
			*p ^= t << 8
			*q ^= t
		}
	}
	for base := 0; base < 64; base += 8 {
		for k := base; k < base+4; k++ {
			p, q := &a[k&63], &a[(k+4)&63]
			t := ((*p >> 4) ^ *q) & 0x0F0F0F0F0F0F0F0F
			*p ^= t << 4
			*q ^= t
		}
	}
	for base := 0; base < 64; base += 4 {
		for k := base; k < base+2; k++ {
			p, q := &a[k&63], &a[(k+2)&63]
			t := ((*p >> 2) ^ *q) & 0x3333333333333333
			*p ^= t << 2
			*q ^= t
		}
	}
	for k := 0; k < 64; k += 2 {
		p, q := &a[k&63], &a[(k+1)&63]
		t := ((*p >> 1) ^ *q) & 0x5555555555555555
		*p ^= t << 1
		*q ^= t
	}
}
