package failcache

import (
	"testing"

	"aegis/internal/pcm"
)

func TestPerfectKnowsEverything(t *testing.T) {
	blk := pcm.NewImmortalBlock(128)
	blk.InjectFault(3, true)
	blk.InjectFault(100, false)

	v := Perfect{}.View(42)
	known := v.AppendKnown(blk, nil)
	if len(known) != 2 {
		t.Fatalf("Known = %v", known)
	}
	if known[0] != (Fault{Pos: 3, Val: true}) || known[1] != (Fault{Pos: 100, Val: false}) {
		t.Fatalf("Known = %v", known)
	}
	// Record is a no-op and must not panic.
	v.Record(Fault{Pos: 5, Val: true})
	if (Perfect{}).Name() == "" {
		t.Fatal("empty name")
	}
}

func TestDirectMappedRecordAndLookup(t *testing.T) {
	blk := pcm.NewImmortalBlock(128)
	blk.InjectFault(3, true)
	blk.InjectFault(100, false)

	c := NewDirectMapped(64)
	v := c.View(7)
	if got := v.AppendKnown(blk, nil); len(got) != 0 {
		t.Fatalf("cold cache knows %v", got)
	}
	v.Record(Fault{Pos: 3, Val: true})
	got := v.AppendKnown(blk, nil)
	if len(got) != 1 || got[0].Pos != 3 || !got[0].Val {
		t.Fatalf("after record, Known = %v", got)
	}
	v.Record(Fault{Pos: 100, Val: false})
	if got := v.AppendKnown(blk, nil); len(got) != 2 {
		t.Fatalf("Known = %v", got)
	}
}

func TestDirectMappedIsolationBetweenBlocks(t *testing.T) {
	blkA := pcm.NewImmortalBlock(128)
	blkA.InjectFault(3, true)
	blkB := pcm.NewImmortalBlock(128)
	blkB.InjectFault(3, false)

	c := NewDirectMapped(1024)
	va := c.View(1)
	vb := c.View(2)
	va.Record(Fault{Pos: 3, Val: true})
	if got := vb.AppendKnown(blkB, nil); len(got) != 0 {
		t.Fatalf("block B sees block A's entry: %v", got)
	}
}

func TestDirectMappedEviction(t *testing.T) {
	// Capacity 1: the second record evicts the first.
	blk := pcm.NewImmortalBlock(128)
	blk.InjectFault(3, true)
	blk.InjectFault(100, false)

	c := NewDirectMapped(1)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	v := c.View(7)
	v.Record(Fault{Pos: 3, Val: true})
	v.Record(Fault{Pos: 100, Val: false})
	got := v.AppendKnown(blk, nil)
	if len(got) != 1 || got[0].Pos != 100 {
		t.Fatalf("after eviction, Known = %v", got)
	}
}

func TestDirectMappedRoundsUpToPow2(t *testing.T) {
	if got := NewDirectMapped(100).Len(); got != 128 {
		t.Fatalf("Len = %d, want 128", got)
	}
	if got := NewDirectMapped(0).Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if NewDirectMapped(8).Name() != "dm-cache-8" {
		t.Fatal("unexpected name")
	}
}
