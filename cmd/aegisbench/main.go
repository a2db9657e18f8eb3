// Command aegisbench runs the reproduction harness: it regenerates any
// table or figure of the paper's evaluation and prints it as an aligned
// ASCII table (optionally exporting CSV and a machine-readable JSON run
// manifest).
//
// Usage:
//
//	aegisbench -exp table1
//	aegisbench -exp fig5 -preset default
//	aegisbench -exp all -preset quick -csv out/
//	aegisbench -exp table1 -json results/
//	aegisbench -exp all -preset full -cpuprofile cpu.out -http localhost:6060
//	aegisbench -list
//
// Experiments: table1, fig2, fig5…fig13, all.  Presets scale the Monte
// Carlo effort (see DESIGN.md §3 on lifetime scaling): quick (seconds),
// default (minutes, the README numbers), full (closer to paper scale).
//
// -json DIR serializes the run to DIR/<exp>.json: config, seed, git SHA,
// Go version, wall/CPU time, per-scheme operation counters, per-scheme
// histograms and every result row (see DESIGN.md §"Run manifests" for
// the schema).  -events FILE streams sampled scheme decision events
// (repartitions, inversions, salvages, deaths) as aegis.events/v1 JSONL;
// -sample N keeps one event in every N.
// -shards N splits every simulation's trial range into N deterministic
// shards — results are byte-identical at any shard count, because each
// trial's RNG derives from its global trial index.  -cache-dir DIR
// persists each completed shard as a content-addressed aegis.shard/v1
// file; -resume loads the shards that already exist instead of
// recomputing them, so an interrupted run finishes from where it was
// killed and an unchanged rerun reports 100% cache hits (see DESIGN.md
// §"Sharded runs").  -shard-workers N computes N shards concurrently
// (default NumCPU); like the shard count, the worker count never
// changes results.
//
// -cpuprofile/-memprofile/-trace write standard Go profiles.
// -memprofile first performs a warm-up run and snapshots its heap to
// <path>.warmup; diff the final profile against it
// (go tool pprof -diff_base <path>.warmup <path>) to see the measured
// run's steady-state allocations instead of one-time cache and layout
// construction.  -http serves the same operational surface as aegisd:
// GET /metrics (Prometheus text exposition, including the run's live
// trial progress and per-scheme counters), expvar ("aegis.counters")
// at /debug/vars, live run progress as JSON (/debug/aegis/progress)
// and net/http/pprof for inspection of long runs.  A progress line
// (trials done, rate, ETA) renders on stderr
// when it is a terminal; -progress overrides the interval.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aegis/internal/engine"
	"aegis/internal/experiments"
	"aegis/internal/obs"
	"aegis/internal/report"
	"aegis/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aegisbench:", err)
		os.Exit(1)
	}
}

// writeSeriesCSV exports figure curves in long form: series, x, y.
func writeSeriesCSV(w io.Writer, series []stats.Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "x", "y"}); err != nil {
		return err
	}
	for _, s := range series {
		for _, pt := range s.Points {
			rec := []string{
				s.Name,
				strconv.FormatFloat(pt.X, 'g', -1, 64),
				strconv.FormatFloat(pt.Y, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("aegisbench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment to run: "+strings.Join(experiments.IDs, ", ")+", or all")
		preset     = fs.String("preset", "default", "effort preset: quick, default, full")
		seed       = fs.Int64("seed", 0, "override the preset's RNG seed (0 = keep preset seed)")
		workers    = fs.Int("workers", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
		csvDir     = fs.String("csv", "", "also write each table as CSV into this directory")
		jsonDir    = fs.String("json", "", "write a machine-readable run manifest into this directory")
		format     = fs.String("format", "text", "table output format: text or md (markdown)")
		list       = fs.Bool("list", false, "list experiments and exit")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = fs.String("trace", "", "write an execution trace to this file")
		httpAddr   = fs.String("http", "", "serve expvar and net/http/pprof on this address (e.g. localhost:6060)")
		eventsPath = fs.String("events", "", "write a decision-event trace (aegis.events/v1 JSONL) to this file")
		sample     = fs.Int("sample", 1, "with -events, keep one decision event in every N")
		progressIv = fs.Duration("progress", 0, "stderr progress-line interval (0 = auto: 2s on a terminal, off otherwise; negative = off)")
		shards     = fs.Int("shards", 1, "split each simulation's trial range into this many deterministic shards (results are identical at any shard count)")
		shardWkrs  = fs.Int("shard-workers", 0, "compute this many shards concurrently (0 = NumCPU; results are identical at any worker count)")
		cacheDir   = fs.String("cache-dir", "", "persist each completed shard as an aegis.shard/v1 file in this directory")
		resume     = fs.Bool("resume", false, "load shards already present in -cache-dir instead of recomputing them")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(out, "paper experiments:")
		for _, id := range experiments.IDs {
			fmt.Fprintf(out, "  %s\n", id)
		}
		fmt.Fprintln(out, "ablations:")
		for _, id := range experiments.AblationIDs {
			fmt.Fprintf(out, "  %s\n", id)
		}
		fmt.Fprintln(out, "  all  (every paper experiment)")
		return nil
	}

	var p experiments.Params
	switch *preset {
	case "quick":
		p = experiments.Quick()
	case "default":
		p = experiments.Default()
	case "full":
		p = experiments.Full()
	default:
		return fmt.Errorf("unknown preset %q (quick, default, full)", *preset)
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	p.Workers = *workers
	reg := obs.NewRegistry()
	p.Obs = reg
	prog := obs.NewProgress()
	p.Progress = prog

	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1 (got %d)", *shards)
	}
	if *resume && *cacheDir == "" {
		return fmt.Errorf("-resume requires -cache-dir: there is no cache to resume from")
	}
	if *shardWkrs < 0 {
		return fmt.Errorf("-shard-workers must be non-negative (got %d)", *shardWkrs)
	}
	shardWorkers := *shardWkrs
	if shardWorkers == 0 {
		shardWorkers = runtime.NumCPU()
	}
	eng := &engine.Engine{Shards: *shards, CacheDir: *cacheDir, Resume: *resume, Workers: shardWorkers}
	p.Engine = eng

	var events *obs.EventWriter
	if *eventsPath != "" {
		var err error
		events, err = obs.NewEventWriter(*eventsPath, *sample)
		if err != nil {
			return fmt.Errorf("-events: %w", err)
		}
		p.Trace = events
	}

	if *httpAddr != "" {
		serveDebug(*httpAddr, reg, prog)
	}
	prof, err := startProfiles(*cpuProfile, *memProfile, *traceOut)
	if err != nil {
		return err
	}
	defer func() {
		if err := prof.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "aegisbench:", err)
		}
	}()

	stopProgress := func() {}
	if ivl := progressInterval(*progressIv); ivl > 0 {
		stopProgress = startProgress(prog, ivl)
	}

	if *memProfile != "" {
		// Steady-state heap profiles: an unobserved warm-up run first
		// populates every process-lifetime cache (plane layout ROMs,
		// scheme mask stores), then its heap is snapshotted as the
		// diff base.  Profile the measured run's own allocations with
		//
		//	go tool pprof -diff_base <path>.warmup <path>
		//
		// Without this the profile is dominated by one-time
		// construction.  The warm-up doubles the run's wall time.
		warm := p
		warm.Obs = nil
		warm.Progress = nil
		warm.Trace = nil
		warm.Engine = nil // direct path: a shard cache would turn the measured run into cache reads
		if _, err := experiments.Run(*exp, warm); err != nil {
			return fmt.Errorf("-memprofile warm-up: %w", err)
		}
		base := *memProfile + ".warmup"
		if err := writeHeapProfile(base); err != nil {
			return err
		}
		fmt.Fprintf(out, "memprofile: warm-up done, diff base written to %s\n", base)
	}

	start := time.Now()
	manifest := obs.NewManifest(*exp)
	manifest.Preset = *preset
	manifest.Seed = p.Seed
	manifest.Workers = p.Workers
	manifest.Config = p
	result, err := experiments.Run(*exp, p)
	stopProgress()
	if err != nil {
		if events != nil {
			events.Close()
		}
		return err
	}
	if events != nil {
		if cerr := events.Close(); cerr != nil {
			return fmt.Errorf("-events: %w", cerr)
		}
		fmt.Fprintf(out, "wrote event trace %s (%d events, %d dropped by sampling)\n",
			events.Path(), events.Written(), events.Dropped())
	}
	if *shards > 1 || *cacheDir != "" {
		st := reg.Shards().Totals()
		fmt.Fprintf(out, "shard cache: %d hit(s), %d miss(es), %d shard(s) persisted\n",
			st.CacheHits, st.CacheMisses, st.Persisted)
	}
	for _, tbl := range result.Tables {
		var rerr error
		switch *format {
		case "text":
			rerr = tbl.Render(out)
		case "md":
			rerr = tbl.RenderMarkdown(out)
		default:
			return fmt.Errorf("unknown format %q (text, md)", *format)
		}
		if rerr != nil {
			return rerr
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		for i, tbl := range result.Tables {
			name := fmt.Sprintf("%s_%02d.csv", *exp, i)
			f, err := os.Create(filepath.Join(*csvDir, name))
			if err != nil {
				return err
			}
			werr := tbl.WriteCSV(f)
			cerr := f.Close()
			if werr != nil {
				return werr
			}
			if cerr != nil {
				return cerr
			}
		}
		written := len(result.Tables)
		if len(result.Series) > 0 {
			name := fmt.Sprintf("%s_series.csv", *exp)
			f, err := os.Create(filepath.Join(*csvDir, name))
			if err != nil {
				return err
			}
			werr := writeSeriesCSV(f, result.Series)
			cerr := f.Close()
			if werr != nil {
				return werr
			}
			if cerr != nil {
				return cerr
			}
			written++
		}
		fmt.Fprintf(out, "wrote %d CSV file(s) to %s\n", written, *csvDir)
	}
	if *jsonDir != "" {
		manifest.Finish(start)
		manifest.Counters = reg.Snapshot()
		manifest.Histograms = reg.HistSnapshot()
		if events != nil {
			manifest.Events = &obs.EventTraceInfo{
				Path:        events.Path(),
				Schema:      obs.EventSchema,
				SampleEvery: events.SampleEvery(),
				Written:     events.Written(),
				Dropped:     events.Dropped(),
			}
		}
		if *shards > 1 || *cacheDir != "" {
			st := reg.Shards().Totals()
			manifest.Sharding = &obs.ShardingInfo{
				ShardSchema: engine.ShardSchema,
				Shards:      *shards,
				Workers:     shardWorkers,
				CacheDir:    *cacheDir,
				Resume:      *resume,
				CacheHits:   st.CacheHits,
				CacheMisses: st.CacheMisses,
				Persisted:   st.Persisted,
			}
		}
		manifest.Tables = manifestTables(result.Tables)
		manifest.Series = manifestSeries(result.Series)
		path := filepath.Join(*jsonDir, *exp+".json")
		if err := manifest.Write(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote run manifest %s\n", path)
	}
	fmt.Fprintf(out, "done in %v (preset %s, seed %d)\n", time.Since(start).Round(time.Millisecond), *preset, p.Seed)
	return nil
}

// manifestTables converts rendered report tables to their JSON form.
func manifestTables(tables []*report.Table) []obs.Table {
	out := make([]obs.Table, 0, len(tables))
	for _, t := range tables {
		out = append(out, obs.Table{
			Title:  t.Title,
			Header: t.Header,
			Rows:   t.Rows,
			Notes:  t.Notes,
		})
	}
	return out
}

// manifestSeries converts figure curves to their JSON form.
func manifestSeries(series []stats.Series) []obs.Series {
	out := make([]obs.Series, 0, len(series))
	for _, s := range series {
		ms := obs.Series{Name: s.Name, Points: make([]obs.Point, 0, len(s.Points))}
		for _, pt := range s.Points {
			ms.Points = append(ms.Points, obs.Point{X: pt.X, Y: pt.Y})
		}
		out = append(out, ms)
	}
	return out
}
