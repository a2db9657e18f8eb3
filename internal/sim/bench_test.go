package sim

import (
	"testing"

	"aegis/internal/core"
	"aegis/internal/scheme"
)

// benchmarkBlocks measures the trial loop alone: 64 single-worker
// 512-bit block trials written to death per op.
func benchmarkBlocks(b *testing.B, f scheme.Factory) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := Config{
			BlockBits: 512,
			PageBytes: 4096,
			MeanLife:  300,
			CoV:       0.25,
			Trials:    64,
			Seed:      int64(i + 1),
			Workers:   1,
		}
		if rs := Blocks(f, cfg); len(rs) != cfg.Trials {
			b.Fatal("bad result count")
		}
	}
}

func BenchmarkBlocksAegis(b *testing.B) { benchmarkBlocks(b, core.MustFactory(512, 23)) }
func BenchmarkBlocksNone(b *testing.B)  { benchmarkBlocks(b, scheme.NoneFactory{Bits: 512}) }
