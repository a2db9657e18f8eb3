// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator, the aegisd job service or a
// two-worker cluster, checks every output, and prints each metric by
// name with its unit.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload paper-quick --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off.  With --trace 1 the run records a span around every call
// the benchmark makes into a layer and reports the per-layer metrics,
// including its own overhead (traced minus untraced pass time).  See
// README.md for the workloads and what each one predicts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports.  A failed-ratio
// metric would read 0 on a healthy run; the result line's "attempted"
// and "failed" carry it instead, and the text report prints the ratio.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_writes_per_s", "1/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// workdir, relative to the repository root the benchmark runs from,
// holds each run's scratch directory (removed when the run ends) and
// the spans of the latest traced run of each workload.
var workdir = filepath.Join(".bench_build", "perfbench-work")

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median.  The first set-up builds the instance the
// timed phase runs; the others are spread over the timed phase, between
// passes and outside their timing, so setup_s samples the host over the
// same stretch as the passes rather than over the run's first second.
// A set-up takes 20-50 ms on the service workloads and about 0.12 s on
// the sim workloads.
const setupReps = 15

// workload is one named input set.  setup builds everything the timed
// phase needs; the returned bench runs passes of a fixed unit of work.
type workload struct {
	name  string
	setup func(e *env) (bench, error)
	// jobs is about how many jobs a 25-second timed phase completes at
	// the slow end of the measured rates.  It fixes the percentile
	// job_latency_tail_ms reports (tailPercentile), so every run of a
	// workload reports the same percentile however fast it went.
	jobs int
}

// bench is a set-up workload instance.
type bench interface {
	// pass runs one fixed unit of the workload's work, recording spans
	// under tr (nil = untraced) and failures into t.
	pass(tr *tracer, t *tally) passResult
	// check verifies sampled outputs after the timed phase.
	check(t *tally)
	// layers fills the per-layer metrics of a traced run from its spans
	// and runs the workload's layer probes.
	layers(tr *tracer, m metricSet, t *tally) error
	// close releases the instance's servers and files.
	close()
}

// passResult is what one pass produced.
type passResult struct {
	// latencies holds one entry per job the pass completed, in ms.
	latencies []float64
	// simWrites is the number of simulated write requests behind the
	// pass's results.
	simWrites int64
}

// env is the run's configuration.
type env struct {
	seed    int64
	seconds float64
	work    string // scratch directory for caches and journals
	spans   string // where a traced run writes its spans
}

// tally counts operations and failures and collects report lines.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.notef("FAILED: %v", err)
	}
}

func (t *tally) notef(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// metricSet maps metric names to values; units come from the spec list.
type metricSet map[string]float64

var workloads = []workload{
	{"paper-quick", setupPaperQuick, 4},                                                   // one job a RunAll pass of 5-7 s: the maximum
	{"lifetime-wide", setupLifetimeWide, 120},                                             // 12 jobs a pass of 2-2.5 s: p90
	{"aegisd-mixed", func(e *env) (bench, error) { return setupService(e, false) }, 1000}, // ~90 jobs/s: p99
	{"cluster-2w", func(e *env) (bench, error) { return setupService(e, true) }, 1000},    // ~70 jobs/s: p99
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: paper-quick, lifetime-wide, aegisd-mixed or cluster-2w")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "length of the measured phase")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := flag.Bool("record-digests", false, "print the paper-quick reference digests and exit")
	flag.Parse()

	if *record {
		if err := recordDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{seed: *seed, seconds: *seconds, work: work, spans: filepath.Join(workdir, w.name+".spans.jsonl")}
	res, err := runWorkload(w, e, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	specs := endToEnd
	if *traced == 1 {
		specs = perLayer()
	}
	if err := report(os.Stdout, w.name, res, specs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runResult is everything a run reports.
type runResult struct {
	tally
	metrics metricSet
}

// runWorkload sets the workload up and runs either the timed phase
// (untraced, repeating the set-up between passes) or the traced run.
func runWorkload(w *workload, e *env, traced bool) (*runResult, error) {
	setup := func() (bench, float64, error) {
		start := time.Now()
		b, err := w.setup(e)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		return b, time.Since(start).Seconds(), nil
	}
	b, first, err := setup()
	if err != nil {
		return nil, err
	}
	defer b.close()

	res := &runResult{metrics: metricSet{}}
	t := &res.tally
	if traced {
		t.notef("set-up: once, %.4f s", first)
		return res, tracedRun(b, e, t, res.metrics)
	}
	setups := []float64{first}
	// again sets the workload up once more, discards the instance and
	// returns the time it took, close included, for the timed phase to
	// leave out.
	again := func() (time.Duration, error) {
		start := time.Now()
		bi, d, err := setup()
		if err != nil {
			return 0, err
		}
		bi.close()
		setups = append(setups, d)
		return time.Since(start), nil
	}
	ph, err := passes(b, nil, t, seconds(e.seconds), again, setupReps-1)
	if err != nil {
		return nil, err
	}
	timed(b, ph, t, res.metrics, tailPercentile(w.jobs))
	res.metrics["setup_s"] = median(setups)
	t.notef("set-up: %d repetitions spread over the timed phase, median %.4f s, quartiles %.4f-%.4f s",
		len(setups), median(setups), percentile(setups, 25), percentile(setups, 75))
	return res, nil
}

// phase is what a run of passes produced.
type phase struct {
	times, lat, peaks []float64 // pass times (s), job latencies (ms), per-pass peak RSS (MB)
	writes            int64
	elapsed           time.Duration
}

// passes runs passes until budget has elapsed (at least one), starting
// a pass only while it would end at most half a pass past the budget.
// Each pass starts from a cleared resident-set high-water mark, so
// peaks holds every pass's own peak.  Between passes it makes reps
// calls to between (none if nil), spread evenly over the budget, the
// last ones after the final pass; the time they take counts neither
// towards the budget nor in elapsed.
func passes(b bench, tr *tracer, t *tally, budget time.Duration, between func() (time.Duration, error), reps int) (phase, error) {
	var (
		ph           phase
		last, paused time.Duration
		calls        int
		start        = time.Now()
	)
	active := func() time.Duration { return time.Since(start) - paused }
	catchUp := func(want int) error {
		for ; between != nil && calls < want; calls++ {
			d, err := between()
			if err != nil {
				return err
			}
			paused += d
		}
		return nil
	}
	for len(ph.times) == 0 || active()+last/2 < budget {
		resetPeakRSS()
		p0 := time.Now()
		pr := b.pass(tr, t)
		last = time.Since(p0)
		ph.times = append(ph.times, last.Seconds())
		ph.peaks = append(ph.peaks, peakRSSMB())
		ph.lat = append(ph.lat, pr.latencies...)
		ph.writes += pr.simWrites
		due := int(math.Ceil(float64(reps) * float64(active()) / float64(budget)))
		if err := catchUp(min(due, reps)); err != nil {
			return ph, err
		}
	}
	ph.elapsed = active()
	return ph, catchUp(reps)
}

// timed derives the end-to-end metrics from the untraced timed phase;
// the latency tail is the pct-th percentile.
func timed(b bench, ph phase, t *tally, m metricSet, pct float64) {
	b.check(t)
	secs := ph.elapsed.Seconds()
	m["wall_s"] = median(ph.times)
	m["peak_rss_mb"] = median(ph.peaks)
	m["sim_writes_per_s"] = float64(ph.writes) / secs
	m["job_latency_p50_ms"] = median(ph.lat)
	m["job_latency_tail_ms"] = percentile(ph.lat, pct)
	m["jobs_per_s"] = float64(len(ph.lat)) / secs
	n := len(ph.lat)
	t.notef("timed phase: %.3f s, %d passes (wall_s is the median pass)", secs, len(ph.times))
	t.notef("jobs: %d completed; job_latency_tail_ms is p%g with %d of %d samples beyond it", n, pct, beyond(n, pct), n)
	t.notef("simulated writes behind the results: %d", ph.writes)
}

// beyond returns how many of n samples lie strictly past the
// nearest-rank pct-th percentile.
func beyond(n int, pct float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(pct, n)
}

// tracedRun splits the budget between untraced and traced passes of the
// same work, reports the difference as the tracing overhead, and lets
// the workload fill its per-layer metrics from the spans.
func tracedRun(b bench, e *env, t *tally, m metricSet) error {
	for _, s := range perLayer() {
		m[s.name] = 0
	}
	half := seconds(e.seconds / 2)
	plainPh, err := passes(b, nil, t, half, nil, 0)
	if err != nil {
		return err
	}
	tr := newTracer()
	tracedPh, err := passes(b, tr, t, half, nil, 0)
	if err != nil {
		return err
	}
	plain, traced := plainPh.times, tracedPh.times
	b.check(t)
	m["trace.overhead_s"] = median(traced) - median(plain)
	t.notef("traced run: %d untraced passes (median %.4f s), %d traced passes (median %.4f s)",
		len(plain), median(plain), len(traced), median(traced))
	if err := b.layers(tr, m, t); err != nil {
		return err
	}
	spans := tr.snapshot()
	dur, self := byName(spans)
	names := make([]string, 0, len(dur))
	for n := range dur {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.notef("span %-32s n=%-6d p50 %10.3f ms, self p50 %10.3f ms", n, len(dur[n]), median(dur[n]), median(self[n]))
	}
	t.notef("spans: %d written to %s", len(spans), e.spans)
	return writeSpans(e.spans, spans)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// resetPeakRSS clears the kernel's resident-set high-water mark of
// this process (Linux /proc/<pid>/clear_refs, value 5).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // without it, peaks span the run so far
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) from
// /proc/self/status; NaN where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// report prints the human-readable lines and then the JSON result line.
func report(out *os.File, name string, res *runResult, specs []metricSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	fmt.Fprintf(out, "workload %s\n", name)
	for _, n := range res.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(out, "  failed_ratio %.4f (%d of %d operations)\n", ratio, res.failed, res.attempted)
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		metrics[s.name] = value{v, s.unit}
		names = append(names, s.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-44s %16.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if res.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
