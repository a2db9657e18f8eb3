package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/engine"
	"aegis/internal/rdis"
	"aegis/internal/safer"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// update rewrites testdata/golden_quick.json from the current code
// instead of comparing against it: go test ./internal/experiments/
// -run TestGoldenRegression -update
var update = flag.Bool("update", false, "rewrite golden regression files")

const goldenSchema = "aegis.golden/v1"

// goldenTolerance is the relative tolerance for every golden metric.
// The runs are fully deterministic (fixed seed, per-trial RNG), so the
// tolerance only needs to absorb floating-point re-association across
// compilers — it is NOT slack for behavioural drift.
const goldenTolerance = 1e-9

type goldenMetrics struct {
	PageLifetimeMean    float64 `json:"page_lifetime_mean"`
	RecoveredFaultsMean float64 `json:"recovered_faults_mean"`
	BlockLifetimeMean   float64 `json:"block_lifetime_mean"`
	FaultsAtDeathMean   float64 `json:"faults_at_death_mean"`
}

type goldenFile struct {
	Schema  string                   `json:"schema"`
	Config  sim.Config               `json:"config"`
	Schemes map[string]goldenMetrics `json:"schemes"`
}

// goldenRoster is the scheme lineup the regression pins: one
// representative of each family.
func goldenRoster() []scheme.Factory {
	return []scheme.Factory{
		ecp.MustFactory(512, 6),
		safer.MustFactory(512, 64),
		rdis.MustFactory(512, 3, cache),
		core.MustFactory(512, 23),
	}
}

func goldenConfig() sim.Config {
	return sim.Config{
		BlockBits: 512,
		PageBytes: 1024,
		MeanLife:  600,
		CoV:       0.25,
		Trials:    8,
		Seed:      1,
		Workers:   2,
	}
}

// TestGoldenRegression runs a fixed-seed quick simulation per scheme —
// through the shard engine, so the cached path is the path being pinned
// — and compares summary metrics against the checked-in golden file.
// A legitimate behaviour change regenerates it with -update.
func TestGoldenRegression(t *testing.T) {
	eng := &engine.Engine{Shards: 3}
	cfg := goldenConfig()
	got := goldenFile{Schema: goldenSchema, Config: cfg, Schemes: map[string]goldenMetrics{}}
	for _, f := range goldenRoster() {
		pcfg := cfg
		pcfg.Seed = Params{Seed: cfg.Seed}.schemeSeed(f.Name())
		pages, err := eng.Pages(f, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		bcfg := pcfg
		bcfg.Trials = 24
		blocks, err := eng.Blocks(f, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		var m goldenMetrics
		for _, r := range pages {
			m.PageLifetimeMean += float64(r.Lifetime)
			m.RecoveredFaultsMean += float64(r.RecoveredFaults)
		}
		m.PageLifetimeMean /= float64(len(pages))
		m.RecoveredFaultsMean /= float64(len(pages))
		for _, r := range blocks {
			m.BlockLifetimeMean += float64(r.Lifetime)
			m.FaultsAtDeathMean += float64(r.FaultsAtDeath)
		}
		m.BlockLifetimeMean /= float64(len(blocks))
		m.FaultsAtDeathMean /= float64(len(blocks))
		got.Schemes[f.Name()] = m
	}

	path := filepath.Join("testdata", "golden_quick.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update to create it): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	if want.Schema != goldenSchema {
		t.Fatalf("golden schema %q, this test writes %q — regenerate with -update", want.Schema, goldenSchema)
	}
	for name, g := range got.Schemes {
		w, ok := want.Schemes[name]
		if !ok {
			t.Errorf("%s: missing from golden file (regenerate with -update)", name)
			continue
		}
		checkTol(t, name, "page_lifetime_mean", g.PageLifetimeMean, w.PageLifetimeMean)
		checkTol(t, name, "recovered_faults_mean", g.RecoveredFaultsMean, w.RecoveredFaultsMean)
		checkTol(t, name, "block_lifetime_mean", g.BlockLifetimeMean, w.BlockLifetimeMean)
		checkTol(t, name, "faults_at_death_mean", g.FaultsAtDeathMean, w.FaultsAtDeathMean)
	}
	for name := range want.Schemes {
		if _, ok := got.Schemes[name]; !ok {
			t.Errorf("%s: in golden file but no longer produced", name)
		}
	}
}

func checkTol(t *testing.T, scheme, metric string, got, want float64) {
	t.Helper()
	if want == 0 && got == 0 {
		return
	}
	rel := math.Abs(got-want) / math.Max(math.Abs(want), math.Abs(got))
	if rel > goldenTolerance {
		t.Errorf("%s %s = %v, golden %v (rel err %.2e > %.0e)\n%s",
			scheme, metric, got, want, rel, goldenTolerance,
			fmt.Sprintf("if this change is intentional, regenerate with: go test ./internal/experiments/ -run TestGoldenRegression -update"))
	}
}

// goldenRun computes the golden metric table through a given engine —
// the same pipeline TestGoldenRegression pins.
func goldenRun(t *testing.T, eng *engine.Engine) map[string]goldenMetrics {
	t.Helper()
	cfg := goldenConfig()
	out := map[string]goldenMetrics{}
	for _, f := range goldenRoster() {
		pcfg := cfg
		pcfg.Seed = Params{Seed: cfg.Seed}.schemeSeed(f.Name())
		pages, err := eng.Pages(f, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		bcfg := pcfg
		bcfg.Trials = 24
		blocks, err := eng.Blocks(f, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		var m goldenMetrics
		for _, r := range pages {
			m.PageLifetimeMean += float64(r.Lifetime)
			m.RecoveredFaultsMean += float64(r.RecoveredFaults)
		}
		m.PageLifetimeMean /= float64(len(pages))
		m.RecoveredFaultsMean /= float64(len(pages))
		for _, r := range blocks {
			m.BlockLifetimeMean += float64(r.Lifetime)
			m.FaultsAtDeathMean += float64(r.FaultsAtDeath)
		}
		m.BlockLifetimeMean /= float64(len(blocks))
		m.FaultsAtDeathMean /= float64(len(blocks))
		out[f.Name()] = m
	}
	return out
}

// TestGoldenWorkersInvariant pins the parallel shard scheduler against
// the golden pipeline: a serial engine and an oversubscribed 8-worker
// engine must agree EXACTLY — same trials, same per-trial RNG, same
// merge order, so not even the float summation order may differ.  No
// tolerance here, unlike the golden-file comparison.
func TestGoldenWorkersInvariant(t *testing.T) {
	serial := goldenRun(t, &engine.Engine{Shards: 3, Workers: 1})
	parallel := goldenRun(t, &engine.Engine{Shards: 3, Workers: 8})
	for name, s := range serial {
		if p := parallel[name]; p != s {
			t.Errorf("%s: workers=8 diverged from workers=1\nserial:   %+v\nparallel: %+v", name, s, p)
		}
	}
}
