package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aegis/internal/cluster"
	"aegis/internal/engine"
	"aegis/internal/obs"
	"aegis/internal/serve"
	"aegis/pkg/client"
)

// Service sizing: two jobs run at once, each split into four shards
// computed one at a time (locally, or one lease in flight per job on the
// cluster), so compute uses the two CPUs the benchmark is sized for.
const (
	serviceJobs   = 2
	serviceShards = 4
	loadClients   = 2
	batchJobs     = 32 // stream items per pass
	// Completion is read from the SSE "done" frame; frames go out every
	// streamInterval, far below the ~20 ms job median, so the frame
	// period does not set the measured latency.
	streamInterval = time.Millisecond
	jobTimeout     = time.Minute
	sampleEvery    = 16 // about one stream item in this many is checked
	maxSamples     = 8
	// traceLeases is about how many leases the traced half of a
	// 25-second cluster-2w run issues at the slow end of the measured
	// rates; it fixes the percentile cluster.lease_rtt_tail_ms reports.
	traceLeases = 1000
)

// service is an in-process aegisd — standalone, or a coordinator with
// two workers — driven over HTTP by pkg/client as a closed loop of
// loadClients clients.
type service struct {
	cluster bool
	seed    int64
	dir     string
	rec     *recorder

	srv       *serve.Server
	front     *httptest.Server
	fleet     []*httptest.Server
	stopFleet context.CancelFunc
	fleetDone sync.WaitGroup
	transport *http.Transport
	clients   map[string]*client.Client // by tenant

	stream *specStream
	pos    int // next stream item

	mu      sync.Mutex
	samples []jobOutcome // kept for check
	traced  []jobOutcome // every job of the traced passes
	before  map[string]float64
}

// jobOutcome is what one stream item produced.
type jobOutcome struct {
	idx      int
	item     streamItem
	err      error
	id       string
	dedup    bool
	latency  time.Duration
	submit   time.Duration
	queue    time.Duration
	compute  time.Duration
	writes   int64
	resultSz int
	raw      []byte // kept only for sampled items
}

func setupService(e *env, clustered bool) (bench, error) {
	dir, err := os.MkdirTemp(e.work, "svc-")
	if err != nil {
		return nil, err
	}
	s := &service{
		cluster:   clustered,
		seed:      e.seed,
		dir:       dir,
		rec:       newRecorder(),
		stream:    newSpecStream(e.seed),
		transport: &http.Transport{MaxIdleConnsPerHost: 8},
		clients:   make(map[string]*client.Client),
	}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) start() error {
	logger := slog.New(s.rec)
	cacheDir := filepath.Join(s.dir, "cache")
	opts := serve.Options{
		Workers:        serviceJobs,
		Shards:         serviceShards,
		EngineWorkers:  1,
		CacheDir:       cacheDir,
		Logger:         logger,
		StreamInterval: streamInterval,
	}
	if s.cluster {
		// Only the coordinator journals.  On the standalone daemon, at
		// its higher job rate, the terminal records' fsyncs on a shared
		// disk spread run-to-run figures past the benchmark's bounds.
		opts.JournalPath = filepath.Join(s.dir, "journal.jsonl")
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}
	s.srv = srv
	var coord *cluster.Coordinator
	if s.cluster {
		coord = cluster.NewCoordinator(cluster.Options{
			CacheDir:   cacheDir,
			FanOut:     1,
			Metrics:    srv.Metrics(),
			Logger:     logger,
			HTTPClient: &http.Client{Transport: leaseTap{r: s.rec, next: s.transport}},
		})
		coord.Mount(srv)
		srv.SetRunner(coord)
	}
	srv.Start()
	s.front = httptest.NewServer(srv.Handler())

	if s.cluster {
		ctx, cancel := context.WithCancel(context.Background())
		s.stopFleet = cancel
		for i := 0; i < 2; i++ {
			w := cluster.NewWorker(cluster.WorkerOptions{
				Name:       fmt.Sprintf("w%d", i),
				CacheDir:   filepath.Join(s.dir, fmt.Sprintf("worker%d", i)),
				Logger:     logger,
				HTTPClient: &http.Client{Transport: s.transport},
			})
			ws := httptest.NewServer(workerTap{r: s.rec, next: w.Handler()})
			s.fleet = append(s.fleet, ws)
			s.fleetDone.Add(1)
			go func() {
				defer s.fleetDone.Done()
				_ = w.Run(ctx, s.front.URL, ws.URL) // returns ctx.Err() at close
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for coord.Workers() < 2 {
			if time.Now().After(deadline) {
				return errors.New("cluster workers did not register within 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}

	for t := 0; t < streamTenant; t++ {
		tenant := "t" + strconv.Itoa(t)
		cl, err := client.New(s.front.URL, client.Options{
			Tenant:     tenant,
			HTTPClient: &http.Client{Transport: clientTap{r: s.rec, next: s.transport}},
		})
		if err != nil {
			return err
		}
		s.clients[tenant] = cl
	}

	// Warm-up: one job of each kind, with seeds the stream never draws,
	// so connections, the cache directory and the journal are live.
	for i, spec := range []client.JobSpec{
		{Kind: "blocks", Scheme: "aegis:61", Trials: 4},
		{Kind: "pages", Scheme: "aegis:61", Trials: 4, PageBytes: 512},
		{Kind: "curve", Scheme: "aegis:61", Trials: 4},
	} {
		spec.Seed = int64(-1 - i)
		if o := s.runItem(nil, -1, streamItem{Spec: spec, Tenant: "t0", Repeat: -1}); o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

func (s *service) close() {
	if s.stopFleet != nil {
		s.stopFleet()
		s.fleetDone.Wait()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.front != nil {
		s.front.Close()
	}
	for _, ws := range s.fleet {
		ws.Close()
	}
	s.transport.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// pass runs the next batchJobs stream items through the closed loop.
func (s *service) pass(tr *tracer, t *tally) passResult {
	if tr != nil && !s.rec.on.Load() {
		s.rec.tr = tr
		var err error
		s.before, err = s.scrape()
		t.op(err)
		s.rec.on.Store(true)
	}
	items := make([]streamItem, batchJobs)
	for i := range items {
		items[i] = s.stream.at(s.pos + i)
	}
	base := s.pos
	s.pos += batchJobs

	out := make([]jobOutcome, batchJobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= batchJobs {
					return
				}
				out[i] = s.runItem(tr, base+i, items[i])
			}
		}()
	}
	wg.Wait()

	var pr passResult
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range out {
		t.op(o.err)
		if o.err != nil {
			continue
		}
		pr.latencies = append(pr.latencies, ms(o.latency))
		pr.simWrites += o.writes
		if o.raw != nil && len(s.samples) < maxSamples {
			s.samples = append(s.samples, o)
		}
		if tr != nil {
			o.raw = nil
			s.traced = append(s.traced, o)
		}
	}
	return pr
}

// runItem submits one stream item and follows it to its result:
// submit → SSE "done" frame → result fetch.  A 409 means the same spec
// is already active for the tenant; the item then follows that job.
func (s *service) runItem(tr *tracer, idx int, item streamItem) jobOutcome {
	o := jobOutcome{idx: idx, item: item}
	cl := s.clients[item.Tenant]
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	call := func() {
		if s.rec.on.Load() {
			s.rec.calls.Add(1)
		}
	}

	start := time.Now()
	root := tr.start("job", 0)
	defer tr.end(root)
	sp := tr.start("client.submit", root)
	call()
	st, err := cl.Submit(ctx, item.Spec)
	tr.end(sp)
	o.submit = time.Since(start)
	var apiErr *client.APIError
	switch {
	case err == nil:
		o.id = st.ID
	case errors.As(err, &apiErr) && apiErr.IsDuplicate():
		o.id, o.dedup = apiErr.JobID, true
	default:
		o.err = fmt.Errorf("item %d: submit: %w", idx, err)
		return o
	}

	sp = tr.start("client.events", root)
	call()
	final, err := awaitDone(ctx, cl, o.id)
	tr.end(sp)
	if err == nil && final.State != client.StateDone {
		err = fmt.Errorf("finished %s: %s", final.State, final.Error)
	}
	if err != nil {
		o.err = fmt.Errorf("item %d: job %s: %w", idx, o.id, err)
		return o
	}

	sp = tr.start("client.result", root)
	call()
	raw, err := cl.Result(ctx, o.id)
	tr.end(sp)
	o.latency = time.Since(start)
	if err != nil {
		o.err = fmt.Errorf("item %d: result %s: %w", idx, o.id, err)
		return o
	}
	var doc struct {
		ElapsedSeconds float64               `json:"elapsed_seconds"`
		Counters       map[string]obs.Totals `json:"counters"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		o.err = fmt.Errorf("item %d: result %s: %w", idx, o.id, err)
		return o
	}
	for _, tot := range doc.Counters {
		o.writes += tot.Writes
	}
	o.resultSz = len(raw)
	o.compute = time.Duration(doc.ElapsedSeconds * float64(time.Second))
	if final.StartedAt != nil {
		o.queue = final.StartedAt.Sub(final.CreatedAt)
	}
	if idx >= 0 && uint64(mix(s.seed, idx))%sampleEvery == 0 {
		o.raw = raw
	}
	return o
}

// awaitDone follows a job's event stream to its "done" frame.
func awaitDone(ctx context.Context, cl *client.Client, id string) (*client.JobStatus, error) {
	es, err := cl.Events(ctx, id)
	if err != nil {
		return nil, err
	}
	defer es.Close()
	for {
		ev, err := es.Next()
		if err != nil {
			return nil, err
		}
		if ev.Name == "done" {
			return ev.Status()
		}
	}
}

// check recomputes each sampled job directly through the engine and
// requires the served result document to match it byte for byte, after
// dropping the wall-clock time and the cache path.  The cache-traffic
// counts depend on what the cache held when the job ran, so the
// expected document takes them from the served one.
func (s *service) check(t *tally) {
	for _, o := range s.samples {
		t.op(s.checkOne(o))
	}
	t.notef("checked %d sampled job results against direct engine runs", len(s.samples))
}

func (s *service) checkOne(o jobOutcome) error {
	var req serve.JobRequest
	spec, _ := json.Marshal(o.item.Spec) // JobSpec holds only scalars
	if err := json.Unmarshal(spec, &req); err != nil {
		return err
	}
	f, err := req.Normalize()
	if err != nil {
		return fmt.Errorf("item %d: %w", o.idx, err)
	}
	cfg := req.SimConfig()
	cfg.Workers = 1
	reg := obs.NewRegistry()
	cfg.Obs = reg
	shards := req.Shards
	if shards == 0 {
		shards = serviceShards
	}
	eng := &engine.Engine{Shards: shards, Workers: 1}
	want := serve.JobResult{Schema: serve.JobSchema, ID: o.id, Request: req, Scheme: f.Name(), Kind: req.Kind}
	switch req.Kind {
	case serve.KindBlocks:
		want.Blocks, err = eng.Blocks(f, cfg)
	case serve.KindPages:
		want.Pages, err = eng.Pages(f, cfg)
	case serve.KindCurve:
		want.Curve, err = eng.FailureCurveBias(f, cfg, req.MaxFaults, req.WritesPerStep, *req.Bias)
	}
	if err != nil {
		return fmt.Errorf("item %d: direct run: %w", o.idx, err)
	}
	want.Counters = reg.Snapshot()
	want.Histograms = reg.HistSnapshot()
	want.Sharding = obs.ShardingInfo{
		ShardSchema: engine.ShardSchema,
		Shards:      shards,
		Workers:     1,
		Lanes:       req.Lanes,
		Resume:      true,
	}
	wantRaw, err := json.Marshal(want)
	if err != nil {
		return err
	}
	got, err := canonical(o.raw, nil)
	if err != nil {
		return fmt.Errorf("item %d: served result: %w", o.idx, err)
	}
	exp, err := canonical(wantRaw, o.raw)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, exp) {
		return fmt.Errorf("item %d (job %s): served result differs from a direct engine run\nserved: %s\ndirect: %s", o.idx, o.id, got, exp)
	}
	return nil
}

// canonical re-encodes a job result without elapsed_seconds and
// sharding.cache_dir.  With traffic set, the sharding block's
// cache-traffic counts are copied from that document.
func canonical(raw, traffic []byte) ([]byte, error) {
	decode := func(b []byte) (map[string]any, error) {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber()
		var doc map[string]any
		return doc, dec.Decode(&doc)
	}
	doc, err := decode(raw)
	if err != nil {
		return nil, err
	}
	delete(doc, "elapsed_seconds")
	sh, _ := doc["sharding"].(map[string]any)
	if sh == nil {
		return nil, errors.New("result has no sharding block")
	}
	delete(sh, "cache_dir")
	if traffic != nil {
		src, err := decode(traffic)
		if err != nil {
			return nil, err
		}
		from, _ := src["sharding"].(map[string]any)
		for _, k := range []string{"cache_hits", "cache_misses", "persisted"} {
			if v, ok := from[k]; ok {
				sh[k] = v
			} else {
				delete(sh, k)
			}
		}
	}
	return json.Marshal(doc)
}

// scrape reads the daemon's /metrics counters this benchmark uses.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.front.URL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		switch name {
		case "aegis_shard_cache_hits_total", "aegis_shard_cache_misses_total", "aegis_cluster_leases_stolen_total":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("scrape /metrics: %s: %w", name, err)
			}
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}

func (s *service) layers(tr *tracer, m metricSet, t *tally) error {
	s.rec.on.Store(false)
	after, err := s.scrape()
	t.op(err)
	delta := func(name string) float64 { return after[name] - s.before[name] }

	hits, misses := delta("aegis_shard_cache_hits_total"), delta("aegis_shard_cache_misses_total")
	if hits+misses > 0 {
		m["engine.cache_hit_ratio"] = hits / (hits + misses)
	}
	s.rec.mu.Lock()
	m["engine.shards_computed"] = float64(len(s.rec.shardElapsed))
	if len(s.rec.shardElapsed) > 0 {
		m["engine.shard_compute_ms"] = median(s.rec.shardElapsed)
	}
	var rtt, compute, overhead []float64
	var leaseBytes int64
	for _, lt := range s.rec.leases {
		if lt.rtt == 0 {
			continue
		}
		rtt = append(rtt, ms(lt.rtt))
		compute = append(compute, ms(lt.compute))
		overhead = append(overhead, ms(lt.rtt-lt.compute))
		leaseBytes += lt.bytes
	}
	s.rec.mu.Unlock()

	var submit, queue, comp, over, size []float64
	dedup := 0
	for _, o := range s.traced {
		submit = append(submit, ms(o.submit))
		queue = append(queue, ms(o.queue))
		comp = append(comp, ms(o.compute))
		over = append(over, ms(o.latency-o.queue-o.compute))
		size = append(size, float64(o.resultSz))
		if o.dedup {
			dedup++
		}
	}
	if len(s.traced) > 0 {
		m["serve.submit_ms"] = median(submit)
		m["serve.queue_wait_ms"] = median(queue)
		m["serve.job_compute_ms"] = median(comp)
		m["serve.job_overhead_ms"] = median(over)
		m["serve.result_bytes"] = median(size)
	}
	m["serve.dedup_409"] = float64(dedup)
	m["serve.rejected"] = float64(s.rec.rejected.Load())
	m["client.retries"] = float64(s.rec.requests.Load() - s.rec.calls.Load())

	if s.cluster {
		if len(rtt) > 0 {
			m["cluster.lease_rtt_ms"] = median(rtt)
			pct := tailPercentile(traceLeases)
			m["cluster.lease_rtt_tail_ms"] = percentile(rtt, pct)
			t.notef("cluster.lease_rtt_tail_ms is p%g with %d of %d leases beyond it", pct, beyond(len(rtt), pct), len(rtt))
			m["cluster.worker_compute_ms"] = median(compute)
			m["cluster.lease_overhead_ms"] = median(overhead)
		}
		m["cluster.leases"] = float64(len(rtt))
		m["cluster.leases_retried"] = delta("aegis_cluster_leases_stolen_total")
		m["cluster.lease_bytes"] = float64(leaseBytes)
	}
	t.notef("traced jobs: %d (%d answered 409 and followed the active job)", len(s.traced), dedup)
	return probes(tr, m, false)
}
