package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"aegis/internal/bitvec"
	"aegis/internal/experiments"
	"aegis/internal/obs"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// simWorkers caps simulation parallelism at the two CPUs the benchmark
// is sized for.
const simWorkers = 2

// quickConfig is the sim configuration at the quick preset's lifetime
// scale, for 512-bit blocks in 4 KB pages.
func quickConfig(trials int, seed int64) sim.Config {
	q := experiments.Quick()
	return sim.Config{
		BlockBits: 512,
		PageBytes: 4096,
		MeanLife:  q.MeanLife,
		CoV:       q.CoV,
		Trials:    trials,
		Seed:      seed,
		Workers:   simWorkers,
	}
}

// mix derives an independent seed from a run seed and an index
// (splitmix64 finalizer).
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// simRoster resolves the roster at 512 bits and warms the simulator up
// on it: a short Blocks run per scheme fills the lane and trial arenas
// and the schemes' shared tables before anything is timed.
func simRoster(seed int64) ([]scheme.Factory, error) {
	fs := make([]scheme.Factory, len(roster))
	for i, r := range roster {
		f, err := r.factory(512)
		if err != nil {
			return nil, err
		}
		fs[i] = f
		sim.Blocks(f, quickConfig(64, mix(seed, -1-i)))
	}
	return fs, nil
}

// ---- paper-quick ----

// paperQuick is experiments.RunAll at the quick preset: what
// `make repro-quick` runs.
type paperQuick struct {
	params experiments.Params
	want   string        // reference digest for params.Seed
	last   *obs.Registry // counters of the latest pass
	seed   int64
}

func setupPaperQuick(e *env) (bench, error) {
	if _, err := simRoster(e.seed); err != nil {
		return nil, err
	}
	p := experiments.Quick()
	p.Seed = paperSeed(e.seed)
	p.Workers = simWorkers
	want, ok := referenceDigests[p.Seed]
	if !ok {
		return nil, fmt.Errorf("no reference digest for experiment seed %d", p.Seed)
	}
	return &paperQuick{params: p, want: want, seed: e.seed}, nil
}

func (b *paperQuick) pass(tr *tracer, t *tally) passResult {
	p := b.params
	reg := obs.NewRegistry()
	p.Obs = reg
	start := time.Now()
	id := tr.start("experiments.RunAll", 0)
	res, err := experiments.RunAll(p)
	tr.end(id)
	lat := ms(time.Since(start))
	if err == nil {
		if got := digest(res); got != b.want {
			err = fmt.Errorf("paper-quick seed %d: digest %s, reference %s", p.Seed, got, b.want)
		}
	}
	t.op(err)
	b.last = reg
	var writes int64
	for _, tot := range reg.Snapshot() {
		writes += tot.Writes
	}
	return passResult{latencies: []float64{lat}, simWrites: writes}
}

// check is a no-op: every pass already compared its digest.
func (b *paperQuick) check(*tally) {}

func (b *paperQuick) close() {}

func (b *paperQuick) layers(tr *tracer, m metricSet, t *tally) error {
	schemeCounts(b.last, m)
	// One span per experiments.Run(id).  Run re-runs the page studies
	// that RunAll shares between Figures 5–7 and 11–13, so these spans
	// sum to more than a RunAll pass.
	root := tr.start("experiments.each", 0)
	for _, id := range experiments.IDs {
		p := b.params
		sp := tr.start("experiments."+id, root)
		_, err := experiments.Run(id, p)
		tr.end(sp)
		t.op(err)
	}
	tr.end(root)
	dur, _ := byName(tr.snapshot())
	for _, id := range experiments.IDs {
		m["experiments."+id+"_s"] = median(dur["experiments."+id]) / 1000
	}
	t.notef("experiments.<id>_s: each experiment run alone; fig5-7 and fig11-13 each re-run their shared page study")
	if err := schemeWriteNs(b.seed, m); err != nil {
		return err
	}
	return probes(tr, m, false)
}

// paperSeed maps the workload seed onto the experiment seeds that have
// a recorded reference digest.
func paperSeed(seed int64) int64 {
	n := int64(digestSeeds)
	return 1 + ((seed%n)+n)%n
}

// digest hashes every table and series of a harness result.
func digest(r experiments.Result) string {
	data, err := json.Marshal(r)
	if err != nil {
		// Result holds strings and floats; the harness never emits NaN.
		panic(fmt.Sprintf("digest: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ---- lifetime-wide ----

const (
	wideBlockTrials = 256 // four full 64-lane groups per scheme
	widePageTrials  = 64
	widePageBytes   = 1024 // 16 blocks a page keeps a pass near two seconds
	wideSamples     = 2    // trials re-run one at a time per scheme and kind
)

// lifetimeWide runs sim.Blocks and sim.Pages over the roster at lane
// width auto: the sliced path's home ground.
type lifetimeWide struct {
	factories []scheme.Factory
	seed      int64
	blocks    [][]sim.BlockResult
	pages     [][]sim.PageResult
	first     []byte        // encoded results of the first pass
	last      *obs.Registry // counters of the latest traced pass
}

func setupLifetimeWide(e *env) (bench, error) {
	fs, err := simRoster(e.seed)
	if err != nil {
		return nil, err
	}
	return &lifetimeWide{factories: fs, seed: e.seed}, nil
}

func (b *lifetimeWide) config(i int, kind string) sim.Config {
	if kind == "blocks" {
		return quickConfig(wideBlockTrials, mix(b.seed, 2*i))
	}
	cfg := quickConfig(widePageTrials, mix(b.seed, 2*i+1))
	cfg.PageBytes = widePageBytes
	return cfg
}

func (b *lifetimeWide) pass(tr *tracer, t *tally) passResult {
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
		b.last = reg
	}
	var pr passResult
	b.blocks = make([][]sim.BlockResult, len(b.factories))
	b.pages = make([][]sim.PageResult, len(b.factories))
	root := tr.start("lifetime-wide.pass", 0)
	for i, f := range b.factories {
		for _, kind := range simKinds {
			cfg := b.config(i, kind)
			cfg.Obs = reg
			start := time.Now()
			sp := tr.start("sim."+kind+"."+roster[i].slug, root)
			if kind == "blocks" {
				b.blocks[i] = sim.Blocks(f, cfg)
				pr.simWrites += sum64(sim.BlockLifetimes(b.blocks[i]))
			} else {
				b.pages[i] = sim.Pages(f, cfg)
				pr.simWrites += sum64(sim.Lifetimes(b.pages[i]))
			}
			tr.end(sp)
			pr.latencies = append(pr.latencies, ms(time.Since(start)))
		}
	}
	tr.end(root)
	// Every pass runs the same inputs, so every pass must reproduce the
	// first one's results exactly.
	enc, err := json.Marshal([]any{b.blocks, b.pages})
	if err == nil && b.first == nil {
		b.first = enc
	} else if err == nil && !bytes.Equal(enc, b.first) {
		err = fmt.Errorf("lifetime-wide: pass results differ from the first pass")
	}
	t.op(err)
	return pr
}

// check re-runs a seeded sample of trials one at a time on the scalar
// path (Trials=1, TrialOffset=t, Lanes=1) and requires the same result
// the lane-packed run produced for that trial.
func (b *lifetimeWide) check(t *tally) {
	rng := rand.New(rand.NewSource(b.seed))
	for i, f := range b.factories {
		for _, kind := range simKinds {
			for s := 0; s < wideSamples; s++ {
				cfg := b.config(i, kind)
				trial := rng.Intn(cfg.Trials)
				cfg.Trials, cfg.TrialOffset, cfg.Lanes, cfg.Workers = 1, trial, 1, 1
				var got, want any
				if kind == "blocks" {
					got, want = sim.Blocks(f, cfg)[0], b.blocks[i][trial]
				} else {
					got, want = sim.Pages(f, cfg)[0], b.pages[i][trial]
				}
				var err error
				if got != want {
					err = fmt.Errorf("%s %s trial %d: scalar re-run %+v, lane-packed run %+v", f.Name(), kind, trial, got, want)
				}
				t.op(err)
			}
		}
	}
}

func (b *lifetimeWide) close() {}

func (b *lifetimeWide) layers(tr *tracer, m metricSet, t *tally) error {
	schemeCounts(b.last, m)
	spans := tr.snapshot()
	dur, _ := byName(spans)
	for _, r := range roster {
		for _, k := range simKinds {
			m["sim."+k+"."+r.slug+"_s"] = median(dur["sim."+k+"."+r.slug]) / 1000
		}
	}
	var writes int64
	for _, tot := range b.last.Snapshot() {
		writes += tot.Writes
	}
	m["sim.host_ns_per_write"] = median(dur["lifetime-wide.pass"]) * 1e6 / float64(writes)
	if err := schemeWriteNs(b.seed, m); err != nil {
		return err
	}
	return probes(tr, m, true)
}

func sum64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// ---- scheme layer ----

// schemeCounts reports, per roster scheme, the exact write-amplification
// and repartition ratios from a registry the sim drained into.
func schemeCounts(reg *obs.Registry, m metricSet) {
	if reg == nil {
		return
	}
	bySlug := map[string]obs.Totals{}
	for name, tot := range reg.Snapshot() {
		bySlug[slugOf(name)] = tot
	}
	for _, r := range roster {
		tot, ok := bySlug[r.slug]
		if !ok || tot.Writes == 0 {
			continue
		}
		p := "scheme." + r.slug
		m[p+".extra_writes_per_request"] = float64(tot.RawWrites-tot.Writes) / float64(tot.Writes)
		m[p+".repartitions_per_write"] = float64(tot.Repartitions) / float64(tot.Writes)
	}
}

// timedFactory wraps a factory so every Write is timed.  The wrapper
// does not implement scheme.SlicedFactory, so sim runs it scalar.
type timedFactory struct {
	scheme.Factory
	ns, calls atomic.Int64
}

func (f *timedFactory) New() scheme.Scheme { return &timedScheme{Scheme: f.Factory.New(), f: f} }

type timedScheme struct {
	scheme.Scheme
	f *timedFactory
}

func (s *timedScheme) Write(blk *pcm.Block, data *bitvec.Vector) error {
	start := time.Now()
	err := s.Scheme.Write(blk, data)
	s.f.ns.Add(int64(time.Since(start)))
	s.f.calls.Add(1)
	return err
}

// Reset keeps sim's per-worker scheme reuse for schemes that support it.
func (s *timedScheme) Reset() {
	if r, ok := s.Scheme.(scheme.Resettable); ok {
		r.Reset()
	}
}

// OpStats forwards the wrapped scheme's counters to sim's drain.
func (s *timedScheme) OpStats() scheme.OpStats {
	if r, ok := s.Scheme.(scheme.OpReporter); ok {
		return r.OpStats()
	}
	return scheme.OpStats{}
}

// schemeWriteNs times every Write of a scalar Blocks run per roster
// scheme (one worker, so the times are not shared with another run).
// The time includes the pcm writes each Write issues and one clock
// read pair.
func schemeWriteNs(seed int64, m metricSet) error {
	for i, r := range roster {
		f, err := r.factory(512)
		if err != nil {
			return err
		}
		tf := &timedFactory{Factory: f}
		cfg := quickConfig(32, mix(seed, 100+i))
		cfg.Workers = 1
		sim.Blocks(tf, cfg)
		if n := tf.calls.Load(); n > 0 {
			m["scheme."+r.slug+".write_ns"] = float64(tf.ns.Load()) / float64(n)
		}
	}
	return nil
}
