package main

import (
	"time"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/xrand"
)

const probeReps = 11

// sink keeps probe results live so the compiler cannot drop the calls.
var sink uint64

// probe times n calls of body probeReps times, each repetition a span
// under root, and returns the median time per call in ns.
func probe(tr *tracer, root int64, name string, n int, body func(n int)) float64 {
	per := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		sp := tr.start("probe."+name, root)
		start := time.Now()
		body(n)
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
		tr.end(sp)
	}
	return median(per)
}

// probes times the substrate layers' public functions on the shapes
// the workloads use: 512-bit blocks, the 9x61 layout, 64-lane blocks.
// The lane probe runs only where the workload reaches the sliced path.
func probes(tr *tracer, m metricSet, lanes bool) error {
	root := tr.start("probes", 0)
	defer tr.end(root)
	rng := xrand.New(1)

	words := make([]uint64, 8) // one 512-bit block
	m["xrand.fill_ns_per_word"] = probe(tr, root, "xrand.fill", 200000, func(n int) {
		for i := 0; i < n; i++ {
			rng.Fill(words)
		}
		sink += words[0]
	}) / float64(len(words))
	var seeded xrand.Rand
	m["xrand.seed_ns"] = probe(tr, root, "xrand.seed", 2000, func(n int) {
		for i := 0; i < n; i++ {
			seeded.Seed(int64(i))
		}
		sink += seeded.Uint64()
	})

	a, b, dst := bitvec.Random(512, rng), bitvec.Random(512, rng), bitvec.New(512)
	m["bitvec.xor_ns"] = probe(tr, root, "bitvec.xor", 500000, func(n int) {
		for i := 0; i < n; i++ {
			dst.Xor(a, b)
		}
		sink += dst.Words()[0]
	})
	m["bitvec.popcount_and_ns"] = probe(tr, root, "bitvec.popcount_and", 500000, func(n int) {
		c := 0
		for i := 0; i < n; i++ {
			c += a.PopcountAnd(b)
		}
		sink += uint64(c)
	})

	layout, err := plane.NewLayout(512, 61)
	if err != nil {
		return err
	}
	m["plane.group_mask_ns"] = probe(tr, root, "plane.group_mask", 500000, func(n int) {
		var w uint64
		for i := 0; i < n; i++ {
			w += layout.GroupMask(i%layout.B, (i/layout.B)%layout.Slopes()).Words()[0]
		}
		sink += w
	})

	// Cells endure ~1e8 writes, so no probe write kills a cell.
	life := dist.NewNormal(1e8)
	blk := pcm.NewBlock(512, life, rng)
	data := make([]*bitvec.Vector, 16)
	for i := range data {
		data[i] = bitvec.Random(512, rng)
	}
	m["pcm.write_raw_ns"] = probe(tr, root, "pcm.write_raw", 100000, func(n int) {
		c := 0
		for i := 0; i < n; i++ {
			c += blk.WriteRaw(data[i%len(data)])
		}
		sink += uint64(c)
	})

	if lanes {
		lb := pcm.NewLaneBlock(512)
		rngs := make([]xrand.Rand, 64)
		for l := range rngs {
			rngs[l].Seed(int64(l + 1))
		}
		lb.Reset(life, rngs)
		images := make([][]uint64, 16)
		for i := range images {
			images[i] = make([]uint64, 512)
			rng.Fill(images[i])
		}
		// One request per write, as the sliced sim issues them: wear
		// settles at EndRequest.
		m["pcm.lane_write_raw_ns"] = probe(tr, root, "pcm.lane_write_raw", 5000, func(n int) {
			for i := 0; i < n; i++ {
				lb.BeginRequest()
				lb.WriteRaw(images[i%len(images)], ^uint64(0))
				lb.EndRequest()
			}
		})
	}
	return nil
}
