// Package experiments regenerates every table and figure of the paper's
// evaluation (Table 1, Figures 5–13) plus the Figure 2 partition
// illustration.  Each experiment returns report tables (and, for curve
// figures, named series) that print the same rows the paper reports.
//
// Absolute write counts are scaled: the paper simulates a mean cell
// lifetime of 1e8 writes, which is lowered by default so the full harness
// runs in minutes on a laptop.  Orderings, ratios and curve shapes are
// invariant to this scale (every scheme faces the same fault-arrival
// process); see DESIGN.md §3.  The -full preset raises the scale.
package experiments

import (
	"hash/fnv"

	"aegis/internal/engine"
	"aegis/internal/obs"
	"aegis/internal/sim"
)

// Params sizes a harness run.
type Params struct {
	// MeanLife is the mean per-cell endurance in bit-writes
	// (paper: 1e8, scaled here).
	MeanLife float64
	// CoV is the lifetime coefficient of variation (paper: 0.25).
	CoV float64
	// PageTrials is the number of 4 KB pages simulated per scheme for
	// the page-level figures (5, 6, 7, 11, 12, 13).
	PageTrials int
	// BlockTrials is the number of blocks simulated per configuration
	// for Figure 10.
	BlockTrials int
	// CurveTrials is the number of fault-injection trials per scheme
	// for Figure 8.
	CurveTrials int
	// SurvivalPages is the number of pages per scheme for the Figure 9
	// survival curves.
	SurvivalPages int
	// Seed makes the whole harness reproducible.
	Seed int64
	// Workers caps simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Engine routes every simulation through the shard engine
	// (internal/engine): splitting, caching and resuming.  nil (or the
	// zero Engine) runs simulations directly — results are identical
	// either way, by construction.  Excluded from JSON like the
	// observability sinks; cmd/aegisbench records sharding in the
	// manifest's dedicated block instead.
	Engine *engine.Engine `json:"-"`
	// Obs, when non-nil, collects per-scheme operation counters and
	// histograms from every simulation the experiments run;
	// cmd/aegisbench serializes the totals into the run manifest.
	// Excluded from JSON so Params itself can serve as the manifest's
	// config record.
	Obs *obs.Registry `json:"-"`
	// Trace, when non-nil, receives sampled scheme decision events from
	// every simulation (the aegis.events/v1 trace).
	Trace *obs.EventWriter `json:"-"`
	// Progress, when non-nil, receives live experiment/phase labels and
	// per-trial completion ticks.
	Progress *obs.Progress `json:"-"`
}

// simConfig builds the sim.Config shared by every experiment, threading
// the observability sinks through.  Callers override Trials, PageBytes
// or PulseWear where an experiment deviates.
func (p Params) simConfig(blockBits, trials int) sim.Config {
	return sim.Config{
		BlockBits: blockBits,
		PageBytes: 4096,
		MeanLife:  p.MeanLife,
		CoV:       p.CoV,
		Trials:    trials,
		Workers:   p.Workers,
		Obs:       p.Obs,
		Trace:     p.Trace,
		Progress:  p.Progress,
	}
}

// Quick returns a preset that runs every experiment in well under a
// minute, for smoke tests and benchmarks.
func Quick() Params {
	return Params{
		MeanLife:      600,
		CoV:           0.25,
		PageTrials:    6,
		BlockTrials:   24,
		CurveTrials:   80,
		SurvivalPages: 24,
		Seed:          1,
	}
}

// Default returns the preset the README quotes: a few minutes end to end
// on one core, with averages stable enough to reproduce the paper's
// orderings.
func Default() Params {
	return Params{
		MeanLife:      2000,
		CoV:           0.25,
		PageTrials:    20,
		BlockTrials:   60,
		CurveTrials:   300,
		SurvivalPages: 48,
		Seed:          1,
	}
}

// Full returns a preset closer to the paper's scale; expect a long run.
func Full() Params {
	return Params{
		MeanLife:      20000,
		CoV:           0.25,
		PageTrials:    48,
		BlockTrials:   200,
		CurveTrials:   1000,
		SurvivalPages: 128,
		Seed:          1,
	}
}

// schemeSeed derives a per-scheme seed from the run seed, stable across
// roster reordering.
func (p Params) schemeSeed(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return p.Seed ^ int64(h.Sum64()&0x7fffffffffffffff)
}
