package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"aegis/internal/experiments"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {20, 1}, {21, 2}, {50, 3}, {60, 3}, {61, 4}, {99, 5}, {100, 5},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n            int
		pct, value   float64
		beyondWanted int
	}{
		{1000, 99, 990, 10}, // p99.9 leaves 1 beyond; p99 leaves 10
		{10000, 99.9, 9990, 10},
		{200, 95, 190, 10}, // p99 leaves 2
		{100, 90, 90, 10},  // p95 leaves 5
		{40, 75, 30, 10},   // p90 leaves 4
		{11, 100, 11, 0},   // too few for any: the maximum
	} {
		pct := tailPercentile(c.n)
		if v := percentile(seq(c.n), pct); pct != c.pct || v != c.value {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", c.n, pct, v, c.pct, c.value)
		}
		if b := beyond(c.n, pct); b != c.beyondWanted {
			t.Errorf("n=%d: %d samples beyond p%v, want %d", c.n, b, pct, c.beyondWanted)
		}
	}
}

// The tail percentile of each workload is fixed by its nominal job
// count, not by how many jobs a run completed; README.md names these.
func TestWorkloadTailPercentiles(t *testing.T) {
	want := map[string]float64{"paper-quick": 100, "lifetime-wide": 90, "aegisd-mixed": 99, "cluster-2w": 99}
	for _, w := range workloads {
		if got := tailPercentile(w.jobs); got != want[w.name] {
			t.Errorf("%s: tail percentile p%v, want p%v", w.name, got, want[w.name])
		}
	}
}

func TestSpecStreamDeterministic(t *testing.T) {
	take := func(seed int64) []streamItem {
		s := newSpecStream(seed)
		out := make([]streamItem, 300)
		for i := len(out) - 1; i >= 0; i-- { // generation order must not matter
			out[i] = s.at(i)
		}
		return out
	}
	a, b, c := take(7), take(7), take(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	repeats := 0
	for i, it := range a {
		if it.Repeat < 0 {
			continue
		}
		repeats++
		if it.Repeat >= i || a[it.Repeat].Repeat != -1 || a[it.Repeat].Spec != it.Spec {
			t.Fatalf("item %d repeats item %d, which is not an earlier fresh item with its spec", i, it.Repeat)
		}
	}
	if repeats == 0 || repeats == len(a) {
		t.Fatalf("%d of %d items are repeats; want a mix", repeats, len(a))
	}
}

func TestDigestStable(t *testing.T) {
	run := func() experiments.Result {
		r, err := experiments.Run("fig2", experiments.Quick())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if digest(a) != digest(b) {
		t.Fatal("digest of identical results differs")
	}
	b.Tables[0].Rows[0][0] += "x"
	if digest(a) == digest(b) {
		t.Fatal("digest did not change with a table cell")
	}
	if len(referenceDigests) != digestSeeds {
		t.Fatalf("digests.json holds %d seeds, want %d", len(referenceDigests), digestSeeds)
	}
	for _, seed := range []int64{-3, 0, 1, 15, 16, 1 << 40} {
		if _, ok := referenceDigests[paperSeed(seed)]; !ok {
			t.Errorf("seed %d maps to experiment seed %d, which has no reference", seed, paperSeed(seed))
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 50); a third covers
		// [60, 70); one sticks out past the parent's end.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "a", Start: ms(30), End: ms(50)},
		{ID: 4, Parent: 1, Name: "b", Start: ms(60), End: ms(70)},
		{ID: 5, Parent: 1, Name: "b", Start: ms(95), End: ms(120)},
		// A grandchild counts against its parent only.
		{ID: 6, Parent: 2, Name: "c", Start: ms(15), End: ms(25)},
	}
	st := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: ms(100 - 40 - 10 - 5), 2: ms(20), 3: ms(20), 4: ms(10), 5: ms(25), 6: ms(10)} {
		if st[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, st[id], want)
		}
	}
}

func TestTracerNilAndNesting(t *testing.T) {
	var off *tracer
	off.end(off.start("x", 0)) // a nil tracer records nothing and does not panic

	tr := newTracer()
	root := tr.start("root", 0)
	child := tr.start("child", root)
	open := tr.start("open", root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot has %d spans, want the 2 closed ones", len(spans))
	}
	if spans[1].Parent != root || spans[1].Trace != root {
		t.Errorf("child span %+v: want parent and trace %d", spans[1], root)
	}
	tr.end(open)
}

// TestRosterSlugs pins the roster's metric names to the schemes'
// display names, which the registry counters are keyed by.
func TestRosterSlugs(t *testing.T) {
	for _, r := range roster {
		f, err := r.factory(512)
		if err != nil {
			t.Fatal(err)
		}
		if got := slugOf(f.Name()); got != r.slug {
			t.Errorf("%q resolves to %q, slug %q; want %q", r.spec, f.Name(), got, r.slug)
		}
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's metric lists to the
// ones the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}
