package safer

import (
	"fmt"

	"aegis/internal/bitvec"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// MarshalBits implements scheme.MetadataCodec: m position fields of
// ⌈log₂ log₂ n⌉ bits (unused fields encode 0), a ⌈log₂(m+1)⌉-bit count
// of the fields in use, and the 2^m inversion bits — exactly the SAFER
// budget reproduced in Table 1.
func (s *SAFER) MarshalBits() *bitvec.Vector {
	w := scheme.NewBitWriter(s.OverheadBits())
	fieldWidth := plane.CeilLog2(s.addrBits)
	for i := 0; i < s.m; i++ {
		if i < len(s.fields) {
			w.WriteUint(uint64(s.fields[i]), fieldWidth)
		} else {
			w.WriteUint(0, fieldWidth)
		}
	}
	w.WriteVector(s.inv)
	w.WriteUint(uint64(len(s.fields)), plane.CeilLog2(s.m+1))
	return w.Finish()
}

// UnmarshalBits implements scheme.MetadataCodec.
func (s *SAFER) UnmarshalBits(v *bitvec.Vector) error {
	r, err := scheme.NewBitReader(v, s.OverheadBits())
	if err != nil {
		return err
	}
	fieldWidth := plane.CeilLog2(s.addrBits)
	raw := make([]int, s.m)
	for i := range raw {
		raw[i] = int(r.ReadUint(fieldWidth))
	}
	inv := r.ReadVector(s.inv.Len())
	count := int(r.ReadUint(plane.CeilLog2(s.m + 1)))
	if count > s.m {
		return fmt.Errorf("safer: decoded field count %d exceeds budget %d", count, s.m)
	}
	fields := raw[:count]
	seen := map[int]bool{}
	for _, f := range fields {
		if f >= s.addrBits {
			return fmt.Errorf("safer: decoded field position %d out of range", f)
		}
		if seen[f] {
			return fmt.Errorf("safer: duplicate field position %d", f)
		}
		seen[f] = true
	}
	s.fields = append(s.fields[:0], fields...)
	s.masks = nil
	s.inv.CopyFrom(inv)
	return nil
}

var _ scheme.MetadataCodec = (*SAFER)(nil)

// MarshalBits implements scheme.MetadataCodec for the cached variant;
// the on-chip layout is identical to cache-less SAFER.
func (c *Cached) MarshalBits() *bitvec.Vector {
	w := scheme.NewBitWriter(c.OverheadBits())
	fieldWidth := plane.CeilLog2(c.addrBits)
	for i := 0; i < c.m; i++ {
		if i < len(c.fields) {
			w.WriteUint(uint64(c.fields[i]), fieldWidth)
		} else {
			w.WriteUint(0, fieldWidth)
		}
	}
	w.WriteVector(c.inv)
	w.WriteUint(uint64(len(c.fields)), plane.CeilLog2(c.m+1))
	return w.Finish()
}

// UnmarshalBits implements scheme.MetadataCodec.
func (c *Cached) UnmarshalBits(v *bitvec.Vector) error {
	r, err := scheme.NewBitReader(v, c.OverheadBits())
	if err != nil {
		return err
	}
	fieldWidth := plane.CeilLog2(c.addrBits)
	raw := make([]int, c.m)
	for i := range raw {
		raw[i] = int(r.ReadUint(fieldWidth))
	}
	inv := r.ReadVector(c.inv.Len())
	count := int(r.ReadUint(plane.CeilLog2(c.m + 1)))
	if count > c.m {
		return fmt.Errorf("safer: decoded field count %d exceeds budget %d", count, c.m)
	}
	for _, f := range raw[:count] {
		if f >= c.addrBits {
			return fmt.Errorf("safer: decoded field position %d out of range", f)
		}
	}
	c.fields = append(c.fields[:0], raw[:count]...)
	c.inv.CopyFrom(inv)
	return nil
}

var _ scheme.MetadataCodec = (*Cached)(nil)
