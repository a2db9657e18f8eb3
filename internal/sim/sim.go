// Package sim is the Monte Carlo engine behind the paper's evaluation
// (§3.1): it writes random data into simulated PCM until blocks or pages
// die, under the paper's model of per-cell normal lifetimes (25 % CoV),
// differential writes, verification reads, and perfect wear leveling.
//
// Three granularities are provided:
//
//   - Blocks — one data block written to death (Figure 10);
//   - Pages — a 4 KB page of data blocks written to death; a page dies
//     with its first unrecoverable block (Figures 5, 6, 7, 11, 12, 13);
//   - FailureCurve — fault-injection probe of block failure probability
//     as a function of fault count (Figure 8).
//
// Device-level survival curves (Figure 9) are the stats.Survival
// transform of page lifetimes: with perfect wear leveling, writes are
// spread uniformly over live pages, so a device is fully described by the
// i.i.d. per-page lifetime sample.
//
// All runs are deterministic: trial t of a run with seed s uses an RNG
// seeded with h(s, t), so results are independent of worker scheduling.
package sim

import (
	"context"
	"runtime"
	"sync"

	"aegis/internal/xrand"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
	"aegis/internal/obs"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// Config parameterizes a Monte Carlo run.
type Config struct {
	// BlockBits is the data block size (the paper uses 256 and 512).
	BlockBits int
	// PageBytes is the memory-block (page) size; the paper reports 4 KB
	// pages.
	PageBytes int
	// MeanLife is the mean per-cell endurance in bit-writes.  The paper
	// uses 1e8; the default presets scale this down (see DESIGN.md §3 —
	// ratios, orderings and curve shapes are scale-invariant).
	MeanLife float64
	// CoV is the lifetime coefficient of variation (paper: 0.25).
	CoV float64
	// Trials is the number of independent blocks/pages to simulate.
	Trials int
	// MaxWrites caps a single trial (safety valve; 0 = no cap).
	MaxWrites int64
	// Seed makes the run reproducible.
	Seed int64
	// TrialOffset shifts the global trial index of the run's first trial.
	// Trial t of this run uses the RNG of global trial TrialOffset+t, so
	// a run of Trials=N at offset 0 produces exactly the concatenation of
	// any contiguous split [0,k)+[k,N).  The shard engine
	// (internal/engine) relies on this to make shard boundaries invisible
	// in the results.
	TrialOffset int
	// Workers limits parallelism (0 = GOMAXPROCS).
	Workers int
	// Lanes is ignored.
	//
	// Deprecated: it selected the bit-sliced execution mode, removed for
	// running slower than the scalar trial loop (DESIGN.md §13).  The
	// field remains only because the benchmark module still sets it.
	Lanes int
	// Ctx, when non-nil, cancels the run: every trial checks the
	// context before starting, so a cancelled or expired run stops
	// within one trial's worth of work.  Trials completed before the
	// cancellation hold valid results; the remainder of the result
	// slice stays zero.  Callers that need all-or-nothing semantics
	// (the shard engine, the serving daemon) check Ctx.Err() after the
	// run and discard partial output.  Like the observability sinks,
	// Ctx never affects the results of the trials that do run.
	Ctx context.Context
	// PulseWear switches from the paper's request-scoped wear model
	// (each cell charged at most one pulse per write request, §3.1) to
	// fully physical per-pulse wear, where a scheme's extra inversion
	// rewrites wear cells immediately.  The default (false) matches the
	// paper; true is the ablation DESIGN.md discusses.
	PulseWear bool
	// Obs, when non-nil, receives each trial's operation counts and
	// block/page deaths under the scheme factory's name.  Draining
	// happens once per trial, so the counters cost nothing on the write
	// hot path.  Histograms (lifetime, repartitions, salvage depth,
	// extra writes) are recorded into the same registry.
	Obs *obs.Registry
	// Trace, when non-nil, receives sampled scheme decision events
	// (repartitions, inversions, salvages, block and page deaths).
	Trace *obs.EventWriter
	// Progress, when non-nil, is ticked once per completed trial; the
	// run's total is registered when the study starts.
	Progress *obs.Progress
}

// BlocksPerPage returns how many data blocks one page holds.
func (c Config) BlocksPerPage() int { return c.PageBytes * 8 / c.BlockBits }

func (c Config) lifetime() dist.Lifetime {
	return dist.Normal{MeanLife: c.MeanLife, CoV: c.CoV}
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// trialSeed derives the deterministic RNG seed of one global trial
// index, independent of worker scheduling.
func trialSeed(seed int64, trial int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(trial+1)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 27
	return int64(h)
}

// trialRNG allocates a fresh per-trial RNG.  The hot loops do not call
// it — they reseed their arena-owned xrand.Rand in place with
// trialSeed — but tests and out-of-engine probes that want a trial's
// stream use it as the reference constructor.
func trialRNG(seed int64, trial int) *xrand.Rand {
	return xrand.New(trialSeed(seed, trial))
}

// cancelled reports whether the run's context (if any) is done.
func (c Config) cancelled() bool {
	return c.Ctx != nil && c.Ctx.Err() != nil
}

// trialScratch is one worker goroutine's reusable arena: scheme
// instances, PCM blocks, and the data vector survive across the
// worker's trials, so steady-state trials allocate nothing.  Trial
// results are unaffected: blocks re-sample their lifetimes from the
// per-trial RNG in construction order, and schemes are Reset to their
// post-construction state (falling back to Factory.New for schemes
// that are not Resettable).
type trialScratch struct {
	schemes []scheme.Scheme
	blocks  []*pcm.Block
	data    *bitvec.Vector
	// rng is the worker's trial RNG state, reseeded in place per trial
	// (xrand.Rand.Seed): the ~4.9 KB generator state is part of the
	// arena, so trials allocate no RNG source (DESIGN.md §17).
	rng xrand.Rand
}

// scheme returns the worker's reusable scheme instance for block slot i
// of the current trial, resetting the previous trial's instance when
// the scheme supports it and constructing a fresh one otherwise.
func (ts *trialScratch) scheme(f scheme.Factory, i int) scheme.Scheme {
	for len(ts.schemes) <= i {
		ts.schemes = append(ts.schemes, nil)
	}
	if s := ts.schemes[i]; s != nil {
		if r, ok := s.(scheme.Resettable); ok {
			r.Reset()
			return s
		}
	}
	s := f.New()
	ts.schemes[i] = s
	return s
}

// block returns the worker's reusable n-bit block for slot i, reset
// with lifetimes drawn from d using rng exactly as pcm.NewBlock draws
// them.
func (ts *trialScratch) block(n int, d dist.Lifetime, rng *xrand.Rand, i int) *pcm.Block {
	for len(ts.blocks) <= i {
		ts.blocks = append(ts.blocks, nil)
	}
	if b := ts.blocks[i]; b != nil && b.Size() == n {
		b.Reset(d, rng)
		return b
	}
	b := pcm.NewBlock(n, d, rng)
	ts.blocks[i] = b
	return b
}

// dataVec returns the worker's reusable n-bit data vector.
func (ts *trialScratch) dataVec(n int) *bitvec.Vector {
	if ts.data == nil || ts.data.Len() != n {
		ts.data = bitvec.New(n)
	}
	return ts.data
}

// forEachTrial fans cfg.Trials trials out over a worker pool, reporting
// the study's trial count and per-trial completion to cfg.Progress.
// The body receives the run-local trial index and its worker's scratch
// arena; its RNG is derived from the global index cfg.TrialOffset+trial,
// so results are independent of worker count and scheduling.  When
// cfg.Ctx is cancelled, trials not yet started are skipped and the loop
// returns early.
func forEachTrial(cfg Config, body func(trial int, rng *xrand.Rand, ts *trialScratch)) {
	cfg.Progress.AddTotal(cfg.Trials)
	run := func(t int, ts *trialScratch) {
		if cfg.cancelled() {
			return
		}
		ts.rng.Seed(trialSeed(cfg.Seed, cfg.TrialOffset+t))
		body(t, &ts.rng, ts)
		cfg.Progress.Done(1)
	}
	workers := cfg.workers()
	if workers > cfg.Trials {
		workers = cfg.Trials
	}
	if workers <= 1 {
		ts := &trialScratch{}
		for t := 0; t < cfg.Trials; t++ {
			if cfg.cancelled() {
				return
			}
			run(t, ts)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts := &trialScratch{}
			for t := range next {
				run(t, ts)
			}
		}()
	}
	for t := 0; t < cfg.Trials; t++ {
		if cfg.cancelled() {
			break
		}
		next <- t
	}
	close(next)
	wg.Wait()
}

// drainOps adds a scheme instance's lifetime operation statistics into
// the registry counters.  Schemes without OpStats contribute nothing.
func drainOps(sc *obs.SchemeCounters, s scheme.Scheme) {
	rep, ok := s.(scheme.OpReporter)
	if !ok {
		return
	}
	st := rep.OpStats()
	sc.Writes.Add(st.Requests)
	sc.RawWrites.Add(st.RawWrites)
	sc.VerifyReads.Add(st.VerifyReads)
	sc.Inversions.Add(st.Inversions)
	sc.Repartitions.Add(st.Repartitions)
	sc.Salvages.Add(st.Salvages)
}

// drainHists records a scheme instance's per-block distributions.  The
// per-trial lifetime is observed separately by the study loops, and the
// salvage depth arrives through the tracer (it is per-request, not
// recoverable from the lifetime totals OpStats reports).
func drainHists(h *obs.SchemeHistograms, s scheme.Scheme) {
	rep, ok := s.(scheme.OpReporter)
	if !ok {
		return
	}
	st := rep.OpStats()
	h.Repartitions.Observe(st.Repartitions)
	h.ExtraWrites.Observe(st.RawWrites - st.Requests)
}

// counters resolves the registry slot trials of this run drain into, or
// nil when observation is off.
func (c Config) counters(f scheme.Factory) *obs.SchemeCounters {
	if c.Obs == nil {
		return nil
	}
	return c.Obs.Scheme(f.Name())
}

// histograms resolves the registry histogram slot, or nil when
// observation is off.
func (c Config) histograms(f scheme.Factory) *obs.SchemeHistograms {
	if c.Obs == nil {
		return nil
	}
	return c.Obs.Histograms(f.Name())
}

// trialTracer adapts one trial's scheme decision events into the
// salvage-depth histogram and the sampled event trace.  The engine
// binds one per trial so events carry the trial index without the
// schemes knowing about it.
type trialTracer struct {
	scheme string
	trial  int
	hist   *obs.SchemeHistograms
	trace  *obs.EventWriter
}

// TraceEvent implements scheme.Tracer.
func (t *trialTracer) TraceEvent(e scheme.TraceEvent) {
	if t.hist != nil && e.Kind == scheme.TraceSalvage {
		t.hist.SalvageDepth.Observe(int64(e.Passes))
	}
	if t.trace == nil {
		return
	}
	t.trace.Emit(obs.Event{
		Scheme: t.scheme,
		Trial:  t.trial,
		Kind:   e.Kind.String(),
		From:   e.From,
		To:     e.To,
		Groups: e.Groups,
		Passes: e.Passes,
		Faults: e.Faults,
		Cause:  e.Cause,
	})
}

// attachTracer installs a per-trial tracer on traceable schemes when
// histograms or event tracing want decision events.  With both off,
// schemes stay untraced and pay only a nil check per potential event.
// Events carry the global trial index (TrialOffset applied), so traces
// from sharded runs line up with the merged results.
func (c Config) attachTracer(s scheme.Scheme, name string, trial int, h *obs.SchemeHistograms) {
	if h == nil && c.Trace == nil {
		return
	}
	tb, ok := s.(scheme.Traceable)
	if !ok {
		return
	}
	tb.SetTracer(&trialTracer{scheme: name, trial: c.TrialOffset + trial, hist: h, trace: c.Trace})
}

// BlockResult describes one block written to death.  The JSON form is
// part of the aegis.shard/v1 format (internal/engine).
type BlockResult struct {
	// Lifetime is the number of successful block writes.
	Lifetime int64 `json:"lifetime"`
	// FaultsAtDeath is the block's stuck-cell count when it failed.
	FaultsAtDeath int `json:"faults_at_death"`
	// BitWrites is the total programming pulses the block absorbed,
	// including the scheme's inversion rewrites.
	BitWrites int64 `json:"bit_writes"`
}

// Blocks simulates cfg.Trials independent blocks under the given scheme,
// each written with fresh random data until the scheme reports the block
// unrecoverable.
func Blocks(f scheme.Factory, cfg Config) []BlockResult {
	results := make([]BlockResult, cfg.Trials)
	sc := cfg.counters(f)
	h := cfg.histograms(f)
	name := f.Name()
	life := cfg.lifetime()
	forEachTrial(cfg, func(trial int, rng *xrand.Rand, ts *trialScratch) {
		blk := ts.block(cfg.BlockBits, life, rng, 0)
		s := ts.scheme(f, 0)
		cfg.attachTracer(s, name, trial, h)
		data := ts.dataVec(cfg.BlockBits)
		var writes int64
		died := false
		for cfg.MaxWrites == 0 || writes < cfg.MaxWrites {
			randomize(data, rng)
			if err := writeRequest(cfg, s, blk, data); err != nil {
				died = true
				break
			}
			writes++
		}
		st := blk.Stats()
		results[trial] = BlockResult{
			Lifetime:      writes,
			FaultsAtDeath: blk.FaultCount(),
			BitWrites:     st.BitWrites,
		}
		if sc != nil {
			drainOps(sc, s)
			sc.BitWrites.Add(st.BitWrites)
			if died {
				sc.BlockDeaths.Inc()
			}
		}
		if h != nil {
			h.Lifetime.Observe(writes)
			drainHists(h, s)
		}
	})
	return results
}

// PageResult describes one page written to death.  The JSON form is
// part of the aegis.shard/v1 format (internal/engine).
type PageResult struct {
	// Lifetime is the number of successful page writes (each page write
	// rewrites every block of the page with fresh random data).
	Lifetime int64 `json:"lifetime"`
	// RecoveredFaults is the total stuck-cell count across the page's
	// blocks when the first unrecoverable block killed it — the paper's
	// "average number of recoverable faults in a 4KB page" (Figure 5).
	RecoveredFaults int `json:"recovered_faults"`
}

// Pages simulates cfg.Trials independent 4 KB pages under the given
// scheme.  A page dies when any of its blocks takes an unrecoverable
// write.
func Pages(f scheme.Factory, cfg Config) []PageResult {
	results := make([]PageResult, cfg.Trials)
	sc := cfg.counters(f)
	h := cfg.histograms(f)
	name := f.Name()
	life := cfg.lifetime()
	forEachTrial(cfg, func(trial int, rng *xrand.Rand, ts *trialScratch) {
		nBlocks := cfg.BlocksPerPage()
		for i := 0; i < nBlocks; i++ {
			ts.block(cfg.BlockBits, life, rng, i)
			cfg.attachTracer(ts.scheme(f, i), name, trial, h)
		}
		blocks := ts.blocks[:nBlocks]
		schemes := ts.schemes[:nBlocks]
		data := ts.dataVec(cfg.BlockBits)
		var writes int64
		alive := true
		for alive && (cfg.MaxWrites == 0 || writes < cfg.MaxWrites) {
			for i := range blocks {
				randomize(data, rng)
				if err := writeRequest(cfg, schemes[i], blocks[i], data); err != nil {
					alive = false
					break
				}
			}
			if alive {
				writes++
			}
		}
		faults := 0
		for i := range blocks {
			faults += blocks[i].FaultCount()
		}
		results[trial] = PageResult{Lifetime: writes, RecoveredFaults: faults}
		if sc != nil {
			for i := range schemes {
				drainOps(sc, schemes[i])
			}
			for i := range blocks {
				sc.BitWrites.Add(blocks[i].Stats().BitWrites)
			}
			if !alive {
				// The page died with its first unrecoverable block.
				sc.BlockDeaths.Inc()
				sc.PageDeaths.Inc()
			}
		}
		if h != nil {
			h.Lifetime.Observe(writes)
			for i := range schemes {
				drainHists(h, schemes[i])
			}
		}
		if !alive && cfg.Trace != nil {
			// Block deaths come from the schemes; the page granularity is
			// the engine's, so the engine reports it.
			cfg.Trace.Emit(obs.Event{Scheme: name, Trial: cfg.TrialOffset + trial, Kind: "page_death", Faults: faults})
		}
	})
	return results
}

// writeRequest performs one scheme write under the configured wear model.
func writeRequest(cfg Config, s scheme.Scheme, blk *pcm.Block, data *bitvec.Vector) error {
	if cfg.PulseWear {
		return s.Write(blk, data)
	}
	blk.BeginRequest()
	err := s.Write(blk, data)
	blk.EndRequest()
	return err
}

// randomize refills data with random bits, one bulk Fill per block.
func randomize(data *bitvec.Vector, rng *xrand.Rand) {
	words := data.Words()
	rng.Fill(words)
	if r := data.Len() % 64; r != 0 {
		words[len(words)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// FailureCurve injects faults one at a time into immortal blocks and
// reports, for each fault count 1…maxFaults, the probability that the
// block has become unrecoverable (Figure 8).  After each injection the
// scheme performs writesPerStep random writes; a failed write marks the
// block dead for that and all higher fault counts.  Stuck values are
// drawn uniformly, as in the paper.
func FailureCurve(f scheme.Factory, cfg Config, maxFaults, writesPerStep int) []float64 {
	return FailureCurveBias(f, cfg, maxFaults, writesPerStep, 0.5)
}

// FailureCurveBias is FailureCurve with a configurable probability that
// an injected cell sticks at 1.  bias 0.5 is the paper's model; 0 or 1
// makes every fault the same type, the friendliest case for schemes that
// distinguish stuck-at-Wrong from stuck-at-Right cells (ablation).
func FailureCurveBias(f scheme.Factory, cfg Config, maxFaults, writesPerStep int, bias float64) []float64 {
	dead := FailureCounts(f, cfg, maxFaults, writesPerStep, bias)
	curve := make([]float64, maxFaults+1)
	for nf := 1; nf <= maxFaults; nf++ {
		curve[nf] = float64(dead[nf]) / float64(cfg.Trials)
	}
	return curve
}

// FailureCounts is the mergeable core of the failure-curve probe:
// dead[nf] counts the trials whose block was unrecoverable once nf
// faults had been injected.  Counts from disjoint trial ranges of the
// same configuration sum to the counts of the combined range, which is
// what lets internal/engine shard and cache curve experiments.
func FailureCounts(f scheme.Factory, cfg Config, maxFaults, writesPerStep int, bias float64) []int {
	dead := make([]int, maxFaults+1)
	var mu sync.Mutex
	sc := cfg.counters(f)
	h := cfg.histograms(f)
	name := f.Name()
	forEachTrial(cfg, func(trial int, rng *xrand.Rand, ts *trialScratch) {
		blk := ts.block(cfg.BlockBits, dist.Immortal{}, nil, 0)
		s := ts.scheme(f, 0)
		cfg.attachTracer(s, name, trial, h)
		data := ts.dataVec(cfg.BlockBits)
		positions := rng.Perm(cfg.BlockBits)
		diedAt := maxFaults + 1
		for nf := 1; nf <= maxFaults && nf <= len(positions); nf++ {
			blk.InjectFault(positions[nf-1], rng.Float64() < bias)
			failed := false
			for w := 0; w < writesPerStep; w++ {
				randomize(data, rng)
				if err := writeRequest(cfg, s, blk, data); err != nil {
					failed = true
					break
				}
			}
			if failed {
				diedAt = nf
				break
			}
		}
		if sc != nil {
			drainOps(sc, s)
			sc.BitWrites.Add(blk.Stats().BitWrites)
			if diedAt <= maxFaults {
				sc.BlockDeaths.Inc()
			}
		}
		if h != nil {
			// Fault-injection probes have no lifetime; only the recovery
			// distributions are meaningful here.
			drainHists(h, s)
		}
		mu.Lock()
		for nf := diedAt; nf <= maxFaults; nf++ {
			dead[nf]++
		}
		mu.Unlock()
	})
	return dead
}

// Lifetimes extracts the lifetime column of page results.
func Lifetimes(rs []PageResult) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.Lifetime
	}
	return out
}

// BlockLifetimes extracts the lifetime column of block results.
func BlockLifetimes(rs []BlockResult) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.Lifetime
	}
	return out
}

// RecoveredFaults extracts the recovered-fault column of page results.
func RecoveredFaults(rs []PageResult) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = int64(r.RecoveredFaults)
	}
	return out
}
