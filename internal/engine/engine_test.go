package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aegis/internal/core"
	"aegis/internal/obs"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// testConfig is a small, fast simulation configuration shared by the
// determinism tests.
func testConfig(trials int) sim.Config {
	return sim.Config{
		BlockBits: 64,
		PageBytes: 256,
		MeanLife:  150,
		CoV:       0.25,
		Trials:    trials,
		Seed:      42,
		Workers:   2,
	}
}

func testFactory() scheme.Factory { return core.MustFactory(64, 11) }

func TestSplitTrials(t *testing.T) {
	cases := []struct {
		n, k int
		want [][2]int
	}{
		{10, 1, [][2]int{{0, 10}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{6, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}},
		// Degenerate requests clamp instead of emitting empty shards:
		// more shards than trials yields one shard per trial, a
		// non-positive shard count yields one shard, and an empty trial
		// range yields no shards at all.
		{3, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{1, 8, [][2]int{{0, 1}}},
		{5, 0, [][2]int{{0, 5}}},
		{5, -2, [][2]int{{0, 5}}},
		{0, 3, nil},
		{-1, 3, nil},
	}
	for _, c := range cases {
		got := SplitTrials(c.n, c.k)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitTrials(%d, %d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestShardKeyStableAndDistinct(t *testing.T) {
	cfg := testConfig(10)
	h1 := ConfigHash(cfg, KindBlocks, CurveParams{})
	h2 := ConfigHash(cfg, KindBlocks, CurveParams{})
	if h1 != h2 {
		t.Fatal("ConfigHash not deterministic")
	}
	// Result-affecting fields move the hash…
	cfg2 := cfg
	cfg2.Seed++
	if ConfigHash(cfg2, KindBlocks, CurveParams{}) == h1 {
		t.Fatal("seed change did not move the config hash")
	}
	if ConfigHash(cfg, KindPages, CurveParams{}) == h1 {
		t.Fatal("kind change did not move the config hash")
	}
	if ConfigHash(cfg, KindCurve, CurveParams{MaxFaults: 5, WritesPerStep: 8, Bias: 0.5}) ==
		ConfigHash(cfg, KindCurve, CurveParams{MaxFaults: 5, WritesPerStep: 8, Bias: 1.0}) {
		t.Fatal("curve bias did not move the config hash")
	}
	// …while execution-shape fields must not: the same results come out
	// regardless of worker count, trial split or attached telemetry.
	cfg3 := cfg
	cfg3.Trials = 99
	cfg3.TrialOffset = 7
	cfg3.Workers = 16
	//lint:ignore SA1019 an ignored field must not move the hash either
	cfg3.Lanes = 64 // bit-sliced width is execution shape: cached scalar shards serve sliced runs
	cfg3.Ctx = context.Background()
	cfg3.Obs = obs.NewRegistry()
	cfg3.Progress = obs.NewProgress()
	if ConfigHash(cfg3, KindBlocks, CurveParams{}) != h1 {
		t.Fatal("execution-shape fields moved the config hash")
	}

	k1 := ShardKey(h1, "Aegis", 0, 10, "abc")
	if k1 != ShardKey(h1, "Aegis", 0, 10, "abc") {
		t.Fatal("ShardKey not deterministic")
	}
	for _, other := range []string{
		ShardKey(h1, "Aegis", 0, 9, "abc"),
		ShardKey(h1, "Aegis", 1, 10, "abc"),
		ShardKey(h1, "SAFER", 0, 10, "abc"),
		ShardKey(h1, "Aegis", 0, 10, "def"),
		ShardKey(ConfigHash(cfg2, KindBlocks, CurveParams{}), "Aegis", 0, 10, "abc"),
	} {
		if other == k1 {
			t.Fatal("distinct shard identities collided")
		}
	}
}

// TestShardedMatchesUnsharded is the engine's core determinism contract:
// any shard count (and a cached resume) produces byte-identical results
// to the direct sim call.
func TestShardedMatchesUnsharded(t *testing.T) {
	f := testFactory()

	t.Run("blocks", func(t *testing.T) {
		ref := sim.Blocks(f, testConfig(10))
		for _, shards := range []int{2, 3, 10} {
			e := &Engine{Shards: shards}
			got, err := e.Blocks(f, testConfig(10))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("Shards=%d diverged from direct sim.Blocks", shards)
			}
		}
	})

	t.Run("pages", func(t *testing.T) {
		ref := sim.Pages(f, testConfig(8))
		e := &Engine{Shards: 3}
		got, err := e.Pages(f, testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatal("sharded Pages diverged from direct sim.Pages")
		}
	})

	t.Run("curve", func(t *testing.T) {
		ref := sim.FailureCurve(f, testConfig(12), 8, 4)
		e := &Engine{Shards: 4}
		got, err := e.FailureCurve(f, testConfig(12), 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("sharded FailureCurve diverged: %v vs %v", got, ref)
		}
	})

	t.Run("cached-rerun", func(t *testing.T) {
		dir := t.TempDir()
		ref := sim.Blocks(f, testConfig(10))
		e := &Engine{Shards: 3, CacheDir: dir, Resume: true}
		first, err := e.Blocks(f, testConfig(10))
		if err != nil {
			t.Fatal(err)
		}
		second, err := e.Blocks(f, testConfig(10))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, ref) || !reflect.DeepEqual(second, ref) {
			t.Fatal("cache round trip changed results")
		}
	})
}

// TestCountersSurviveCaching verifies the shard files carry the
// observability deltas: a fully-cached rerun reports the same scheme
// totals and histograms as the computed run.
func TestCountersSurviveCaching(t *testing.T) {
	f := testFactory()
	dir := t.TempDir()
	e := &Engine{Shards: 3, CacheDir: dir, Resume: true}

	run := func() (map[string]obs.Totals, map[string]obs.HistSnapshot, obs.ShardTotals) {
		cfg := testConfig(9)
		reg := obs.NewRegistry()
		cfg.Obs = reg
		if _, err := e.Blocks(f, cfg); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot(), reg.HistSnapshot(), reg.Shards().Totals()
	}

	cold, coldHist, coldShards := run()
	warm, warmHist, warmShards := run()

	if coldShards.CacheMisses != 3 || coldShards.Persisted != 3 || coldShards.CacheHits != 0 {
		t.Fatalf("cold shard traffic = %+v", coldShards)
	}
	if warmShards.CacheHits != 3 || warmShards.CacheMisses != 0 || warmShards.Persisted != 0 {
		t.Fatalf("warm shard traffic = %+v", warmShards)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached rerun counters diverged:\ncold %+v\nwarm %+v", cold, warm)
	}
	if !reflect.DeepEqual(coldHist, warmHist) {
		t.Fatalf("cached rerun histograms diverged:\ncold %+v\nwarm %+v", coldHist, warmHist)
	}
	// And both match an unsharded direct run.
	cfg := testConfig(9)
	direct := obs.NewRegistry()
	cfg.Obs = direct
	sim.Blocks(f, cfg)
	if !reflect.DeepEqual(direct.Snapshot(), warm) {
		t.Fatalf("engine counters diverged from direct run:\ndirect %+v\nengine %+v", direct.Snapshot(), warm)
	}
}

// TestInterruptAndResume kills a run after its first computed shard and
// checks the resumed run completes from the cache with identical
// results — the ISSUE's kill-and-resume acceptance criterion at the
// engine level (the CLI-level twin lives in cmd/aegisbench).
func TestInterruptAndResume(t *testing.T) {
	f := testFactory()
	dir := t.TempDir()
	ref := sim.Blocks(f, testConfig(10))

	interrupted := errors.New("simulated kill")
	// Workers: 1 pins the serial shard order the kill-after-two-shards
	// script depends on; the parallel path is covered by
	// TestParallelWorkersMatchSerial and TestHookErrorStopsParallelRun.
	e := &Engine{Shards: 5, CacheDir: dir, Resume: true, Workers: 1}
	computed := 0
	e.afterShard = func(scheme, kind string, lo, hi int) error {
		computed++
		if computed == 2 {
			return interrupted
		}
		return nil
	}
	if _, err := e.Blocks(f, testConfig(10)); !errors.Is(err, interrupted) {
		t.Fatalf("interrupt not propagated: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 2 {
		t.Fatalf("interrupted run left %d shards, want 2", len(files))
	}

	prog := obs.NewProgress()
	cfg := testConfig(10)
	cfg.Progress = prog
	e.afterShard = nil
	got, err := e.Blocks(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("resumed run diverged from uninterrupted reference")
	}
	snap := prog.Snapshot()
	if snap.CacheHits != 2 || snap.CacheMisses != 3 {
		t.Fatalf("resume cache traffic = %d hits / %d misses, want 2/3", snap.CacheHits, snap.CacheMisses)
	}
	if snap.TrialsDone != 10 {
		t.Fatalf("progress TrialsDone = %d, want 10 (cached trials credited)", snap.TrialsDone)
	}
	if !strings.Contains(prog.Snapshot().String(), "cache 2/5 shards") {
		t.Fatalf("progress line missing cache tally: %q", prog.Snapshot().String())
	}
}

// TestCorruptShardRecomputed: an unparseable cache file is an ordinary
// miss, not a fatal error — a killed run must never wedge its cache.
func TestCorruptShardRecomputed(t *testing.T) {
	f := testFactory()
	dir := t.TempDir()
	e := &Engine{Shards: 2, CacheDir: dir, Resume: true}
	ref, err := e.Blocks(f, testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 2 {
		t.Fatalf("shards on disk = %d", len(files))
	}
	if err := os.WriteFile(files[0], []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := e.Blocks(f, testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("recomputed-after-corruption results diverged")
	}
}

// TestStaleSchemaRefused: a cache entry with a different shard schema is
// refused with an error naming both schemas, the benchdiff mismatch UX.
func TestStaleSchemaRefused(t *testing.T) {
	f := testFactory()
	dir := t.TempDir()
	e := &Engine{Shards: 1, CacheDir: dir, Resume: true}
	if _, err := e.Blocks(f, testConfig(4)); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("shards on disk = %d", len(files))
	}
	rewriteField(t, files[0], "schema", "aegis.shard/v0")

	_, err := e.Blocks(f, testConfig(4))
	if err == nil {
		t.Fatal("stale schema accepted")
	}
	for _, want := range []string{"schema mismatch", "aegis.shard/v0", ShardSchema} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestForeignConfigRefused: a cache entry whose declared config hash
// disagrees with this run's is refused, naming both hashes.
func TestForeignConfigRefused(t *testing.T) {
	f := testFactory()
	dir := t.TempDir()
	e := &Engine{Shards: 1, CacheDir: dir, Resume: true}
	if _, err := e.Blocks(f, testConfig(4)); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	rewriteField(t, files[0], "config_hash", strings.Repeat("ab", 32))

	_, err := e.Blocks(f, testConfig(4))
	if err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("foreign config not refused: %v", err)
	}
}

// rewriteField loads a shard file as raw JSON, replaces one top-level
// string field, and writes it back.
func rewriteField(t *testing.T, path, field, value string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m[field] = json.RawMessage(fmt.Sprintf("%q", value))
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRefusesGapsAndForeignShards(t *testing.T) {
	mk := func(lo, hi int, hash, schemeName string) *Shard {
		s := &Shard{
			Schema: ShardSchema, ConfigHash: hash, Scheme: schemeName,
			Kind: KindBlocks, TrialLo: lo, TrialHi: hi,
			Blocks: make([]sim.BlockResult, hi-lo),
		}
		return s
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("merge of zero shards accepted")
	}
	if _, err := Merge([]*Shard{mk(0, 3, "h", "A"), mk(5, 8, "h", "A")}); err == nil ||
		!strings.Contains(err.Error(), "not contiguous") {
		t.Fatalf("gap not refused: %v", err)
	}
	if _, err := Merge([]*Shard{mk(0, 3, "h", "A"), mk(3, 6, "h2", "A")}); err == nil ||
		!strings.Contains(err.Error(), "config") {
		t.Fatalf("foreign config not refused: %v", err)
	}
	if _, err := Merge([]*Shard{mk(0, 3, "h", "A"), mk(3, 6, "h", "B")}); err == nil {
		t.Fatal("foreign scheme accepted")
	}
	// Out-of-order input merges fine: Merge sorts by TrialLo.
	m, err := Merge([]*Shard{mk(3, 6, "h", "A"), mk(0, 3, "h", "A")})
	if err != nil {
		t.Fatal(err)
	}
	if m.TrialLo != 0 || m.TrialHi != 6 || len(m.Blocks) != 6 {
		t.Fatalf("merged range [%d,%d), %d blocks", m.TrialLo, m.TrialHi, len(m.Blocks))
	}
}

func TestNilEngineFallsThrough(t *testing.T) {
	f := testFactory()
	var e *Engine
	got, err := e.Blocks(f, testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sim.Blocks(f, testConfig(5))) {
		t.Fatal("nil engine diverged from direct sim call")
	}
	// Zero-value engine likewise.
	got, err = (&Engine{}).Blocks(f, testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sim.Blocks(f, testConfig(5))) {
		t.Fatal("zero engine diverged from direct sim call")
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := &Shard{
		Schema: ShardSchema, ConfigHash: "h", Scheme: "A", Kind: KindCurve,
		TrialLo: 0, TrialHi: 5, Dead: []int{0, 1, 2},
		Counters: obs.Totals{Writes: 7},
	}
	s.Key = ShardKey(s.ConfigHash, s.Scheme, s.TrialLo, s.TrialHi, "code")
	path, err := WriteShard(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadShard(path, s.Key, "h", "A", KindCurve, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Dead, s.Dead) || got.Counters.Writes != 7 {
		t.Fatalf("round trip lost payload: %+v", got)
	}
	// Loading under the wrong expectations refuses.
	if _, err := LoadShard(path, s.Key, "h", "A", KindCurve, 0, 6); err == nil {
		t.Fatal("wrong trial range accepted")
	}
	if _, err := LoadShard(path, "otherkey", "h", "A", KindCurve, 0, 5); err == nil {
		t.Fatal("wrong key accepted")
	}
	// Missing file surfaces as fs.ErrNotExist (a plain miss).
	if _, err := LoadShard(filepath.Join(dir, "absent.json"), "k", "h", "A", KindCurve, 0, 5); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error = %v", err)
	}
}

// TestShardLogging runs a sharded study twice against a capturing slog
// handler: the first run logs every shard as computed, the resumed run
// logs every shard as a cache hit, and each record carries the full
// shard identity (scheme, kind, trial range, short key).
func TestShardLogging(t *testing.T) {
	dir := t.TempDir()
	var buf strings.Builder
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	f := testFactory()
	cfg := testConfig(6)

	run := func(resume bool) {
		e := &Engine{Shards: 3, CacheDir: dir, Resume: resume, Workers: 2, Logger: logger}
		if _, err := e.Blocks(f, cfg); err != nil {
			t.Fatal(err)
		}
	}
	parse := func() []map[string]any {
		mu.Lock()
		defer mu.Unlock()
		var recs []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("unparseable log line %q: %v", line, err)
			}
			recs = append(recs, rec)
		}
		buf.Reset()
		return recs
	}

	run(false)
	recs := parse()
	if len(recs) != 3 {
		t.Fatalf("cold run logged %d records, want 3 shards", len(recs))
	}
	for _, rec := range recs {
		if rec["msg"] != "shard computed" {
			t.Fatalf("cold run logged %v, want \"shard computed\"", rec["msg"])
		}
		if rec["scheme"] != f.Name() || rec["kind"] != KindBlocks {
			t.Fatalf("record missing shard identity: %v", rec)
		}
		if key, _ := rec["shard_key"].(string); len(key) != 12 {
			t.Fatalf("shard_key = %v, want 12 hex digits", rec["shard_key"])
		}
		if _, ok := rec["elapsed"]; !ok {
			t.Fatalf("computed shard logged no duration: %v", rec)
		}
	}

	run(true)
	recs = parse()
	if len(recs) != 3 {
		t.Fatalf("resumed run logged %d records, want 3 shards", len(recs))
	}
	for _, rec := range recs {
		if rec["msg"] != "shard cache hit" {
			t.Fatalf("resumed run logged %v, want \"shard cache hit\"", rec["msg"])
		}
	}
}

// lockedWriter serializes writes from concurrent shard workers; slog
// handlers may interleave Write calls otherwise.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
