package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"aegis/internal/obs"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// fakeRemote produces shards the way a cluster worker does — through
// ComputeShard on an engine of its own — and records every task it is
// handed.  failAt, when positive, makes the failAt-th call return errBoom.
type fakeRemote struct {
	f      scheme.Factory
	cfg    sim.Config
	failAt int

	mu    sync.Mutex
	tasks []ShardTask
}

var errBoom = errors.New("remote: boom")

func (r *fakeRemote) produce(_ context.Context, t ShardTask) (*Shard, error) {
	r.mu.Lock()
	r.tasks = append(r.tasks, t)
	n := len(r.tasks)
	r.mu.Unlock()
	if n == r.failAt {
		return nil, errBoom
	}
	s, err := (&Engine{}).ComputeShard(r.f, r.cfg, t.Kind, t.Curve, t.Lo, t.Hi)
	if err != nil {
		return nil, err
	}
	// The worker keys the shard itself; it must land at the task's address.
	if err := ValidateShard(s, "fake remote", t.Key, t.ConfigHash, t.Scheme, t.Kind, t.Lo, t.Hi); err != nil {
		return nil, err
	}
	return s, nil
}

func (r *fakeRemote) calls() []ShardTask {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ShardTask(nil), r.tasks...)
}

// TestRemoteMatchesLocal runs the same cold-then-warm sequence through a
// local engine and through one whose misses go to Remote: payloads,
// counters, histograms, progress and cache traffic must be identical at
// every shard count.
func TestRemoteMatchesLocal(t *testing.T) {
	f := testFactory()
	type outcome struct {
		blocks, warm []sim.BlockResult
		pages        []sim.PageResult
		curve        []float64
		tot          map[string]obs.Totals
		hist         map[string]obs.HistSnapshot
		shards       obs.ShardTotals
		done, total  int64
		hits, misses int64
	}
	run := func(shards int, remote *fakeRemote) outcome {
		t.Helper()
		e := &Engine{Shards: shards, Workers: 3, CacheDir: t.TempDir(), Resume: true}
		if remote != nil {
			e.Remote = remote.produce
		}
		reg, prog := obs.NewRegistry(), obs.NewProgress()
		cfg := testConfig(24)
		cfg.Obs, cfg.Progress = reg, prog
		var o outcome
		var err error
		if o.blocks, err = e.Blocks(f, cfg); err != nil {
			t.Fatal(err)
		}
		if o.pages, err = e.Pages(f, cfg); err != nil {
			t.Fatal(err)
		}
		if o.curve, err = e.FailureCurve(f, cfg, 6, 4); err != nil {
			t.Fatal(err)
		}
		if o.warm, err = e.Blocks(f, cfg); err != nil {
			t.Fatal(err)
		}
		o.tot, o.hist, o.shards = reg.Snapshot(), reg.HistSnapshot(), reg.Shards().Totals()
		ps := prog.Snapshot()
		o.done, o.total, o.hits, o.misses = ps.TrialsDone, ps.TrialsTotal, ps.CacheHits, ps.CacheMisses
		return o
	}
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			local := run(shards, nil)
			remote := &fakeRemote{f: f, cfg: testConfig(24)}
			got := run(shards, remote)
			if !reflect.DeepEqual(local, got) {
				t.Errorf("remote run diverges from local\nlocal  %+v\nremote %+v", local, got)
			}
			// Three cold runs lease every shard once; the warm rerun leases none.
			if n, want := len(remote.calls()), 3*shards; n != want {
				t.Errorf("Remote called %d times, want %d", n, want)
			}
			if local.shards.CacheHits != int64(shards) || local.shards.Persisted != int64(3*shards) {
				t.Errorf("local cache traffic %+v, want %d hits and %d persisted", local.shards, shards, 3*shards)
			}
		})
	}
}

// TestRemoteSkipsCachedShards: only the shard missing from the cache
// reaches Remote.
func TestRemoteSkipsCachedShards(t *testing.T) {
	f := testFactory()
	dir := t.TempDir()
	want, err := (&Engine{Shards: 3, CacheDir: dir}).Blocks(f, testConfig(24))
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 3 {
		t.Fatalf("cold run persisted %d shards, want 3", len(files))
	}
	sort.Strings(files)
	if err := os.Remove(files[1]); err != nil {
		t.Fatal(err)
	}

	remote := &fakeRemote{f: f, cfg: testConfig(24)}
	e := &Engine{Shards: 3, CacheDir: dir, Resume: true, Remote: remote.produce}
	got, err := e.Blocks(f, testConfig(24))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("partially cached remote run diverges from the cold local run")
	}
	calls := remote.calls()
	if len(calls) != 1 || calls[0].Key+".json" != filepath.Base(files[1]) {
		t.Fatalf("Remote got %+v, want exactly the deleted shard %s", calls, filepath.Base(files[1]))
	}
}

// TestRemoteErrorStopsIssue: the first Remote error is the run's error
// and no shard is issued after it.
func TestRemoteErrorStopsIssue(t *testing.T) {
	f := testFactory()
	remote := &fakeRemote{f: f, cfg: testConfig(24), failAt: 2}
	e := &Engine{Shards: 8, Workers: 1, Remote: remote.produce}
	_, err := e.Blocks(f, testConfig(24))
	if !errors.Is(err, errBoom) {
		t.Fatalf("run error = %v, want the Remote error", err)
	}
	if n := len(remote.calls()); n != 2 {
		t.Errorf("Remote called %d times, want 2 (issue stops at the failure)", n)
	}
}

// TestRemoteSingleShardNoCache: a one-shard, cache-less engine with
// Remote set still leases rather than falling through to a direct run.
func TestRemoteSingleShardNoCache(t *testing.T) {
	f := testFactory()
	remote := &fakeRemote{f: f, cfg: testConfig(24)}
	got, err := (&Engine{Shards: 1, Remote: remote.produce}).Blocks(f, testConfig(24))
	if err != nil {
		t.Fatal(err)
	}
	if calls := remote.calls(); len(calls) != 1 || calls[0].Lo != 0 || calls[0].Hi != 24 {
		t.Fatalf("Remote got %+v, want one task covering [0,24)", calls)
	}
	if !reflect.DeepEqual(got, sim.Blocks(f, testConfig(24))) {
		t.Error("leased single-shard run diverges from direct sim.Blocks")
	}
}
