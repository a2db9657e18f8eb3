package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aegis/internal/serve"
	"aegis/pkg/client"
)

// testServe builds a serve.Server with deterministic sizing shared by
// the standalone and cluster sides of the parity tests.
func testServe(t *testing.T, cacheDir string) *serve.Server {
	t.Helper()
	srv, err := serve.New(serve.Options{
		Workers:       1,
		Shards:        6,
		EngineWorkers: 4,
		CacheDir:      cacheDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// testCluster wires a coordinator onto srv and registers n in-process
// workers over the real HTTP registration endpoint.  Returns the
// coordinator's public URL.  Cluster jobs cache shards in srv's cache
// directory.
func testCluster(t *testing.T, srv *serve.Server, n int, opts Options) (*Coordinator, string) {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = srv.Metrics()
	}
	coord := NewCoordinator(opts)
	coord.Mount(srv)
	srv.SetRunner(coord)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerOptions{
			Name:     fmt.Sprintf("w%d", i),
			CacheDir: t.TempDir(),
		})
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(ws.Close)
		registerWorker(t, ts.URL, fmt.Sprintf("w%d", i), ws.URL)
	}
	return coord, ts.URL
}

func registerWorker(t *testing.T, coordURL, name, baseURL string) {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{Name: name, BaseURL: baseURL})
	resp, err := http.Post(coordURL+WorkersPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", name, resp.StatusCode)
	}
}

// runJob submits a spec, waits for the terminal state, and returns the
// raw result document.
func runJob(t *testing.T, baseURL string, spec client.JobSpec) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl, err := client.New(baseURL, client.Options{PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != client.StateDone {
		t.Fatalf("job %s finished %s: %s", st.ID, final.State, final.Error)
	}
	raw, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return raw
}

// canonical rewrites a result document for byte comparison across two
// daemons: wall-clock time and the cache directory path are the only
// fields allowed to differ (two standalone daemons with different
// -cache-dir flags differ there too — it is environment, not result).
func canonical(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if _, ok := doc["elapsed_seconds"]; !ok {
		t.Fatalf("result has no elapsed_seconds field")
	}
	doc["elapsed_seconds"] = 0.0
	if sh, ok := doc["sharding"].(map[string]any); ok {
		delete(sh, "cache_dir")
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterParity pins the tentpole guarantee: a job answered by a
// 1-coordinator/3-worker cluster is byte-identical (modulo wall-clock
// time) to the same spec answered by a standalone daemon — payload,
// counters, histograms and the sharding block included.
func TestClusterParity(t *testing.T) {
	specs := map[string]client.JobSpec{
		"blocks": {Kind: "blocks", Scheme: "aegis:11", BlockBits: 64, Trials: 600, Seed: 41},
		"pages":  {Kind: "pages", Scheme: "aegis:11", BlockBits: 64, PageBytes: 256, Trials: 60, Seed: 42},
		"curve":  {Kind: "curve", Scheme: "aegis:11", BlockBits: 64, Trials: 120, Seed: 43},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			standalone := testServe(t, t.TempDir())
			standalone.Start()
			sts := httptest.NewServer(standalone.Handler())
			defer sts.Close()
			want := runJob(t, sts.URL, spec)

			clustered := testServe(t, t.TempDir())
			_, coordURL := testCluster(t, clustered, 3, Options{})
			got := runJob(t, coordURL, spec)

			cw, cg := canonical(t, want), canonical(t, got)
			if !bytes.Equal(cw, cg) {
				t.Errorf("cluster result diverges from standalone\nstandalone: %s\ncluster:    %s", cw, cg)
			}
		})
	}
}

// TestClusterWarmCache resubmits a spec to a fresh coordinator daemon
// sharing the first run's cache directory: every shard must be a cache
// hit and no lease may be issued.
func TestClusterWarmCache(t *testing.T) {
	spec := client.JobSpec{Kind: "blocks", Scheme: "aegis:11", BlockBits: 64, Trials: 600, Seed: 77}
	coordCache := t.TempDir()

	first := testServe(t, coordCache)
	_, firstURL := testCluster(t, first, 2, Options{})
	runJob(t, firstURL, spec)

	second := testServe(t, coordCache)
	_, secondURL := testCluster(t, second, 0, Options{WorkerWait: time.Second})
	raw := runJob(t, secondURL, spec)

	var doc struct {
		Sharding struct {
			CacheHits   int64 `json:"cache_hits"`
			CacheMisses int64 `json:"cache_misses"`
		} `json:"sharding"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Sharding.CacheMisses != 0 || doc.Sharding.CacheHits != 6 {
		t.Errorf("warm rerun: hits=%d misses=%d, want 6/0 (no worker was even registered)",
			doc.Sharding.CacheHits, doc.Sharding.CacheMisses)
	}
}

// TestClusterStealsFromDeadWorker registers a worker whose URL leads
// nowhere alongside healthy ones: leases that land on it must be
// re-issued (counted as stolen) and the job must still complete.
func TestClusterStealsFromDeadWorker(t *testing.T) {
	srv := testServe(t, "")
	coord, coordURL := testCluster(t, srv, 2, Options{
		RetryBase: time.Millisecond,
	})
	// A listener that is closed immediately: connection refused on use.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	registerWorker(t, coordURL, "dead", deadURL)
	if got := coord.Workers(); got != 3 {
		t.Fatalf("registered fleet = %d, want 3", got)
	}

	runJob(t, coordURL, client.JobSpec{Kind: "blocks", Scheme: "aegis:11", BlockBits: 64, Trials: 600, Seed: 99})

	if n := metricValue(t, coordURL, "aegis_cluster_leases_stolen_total"); n < 1 {
		t.Errorf("aegis_cluster_leases_stolen_total = %v, want >= 1", n)
	}
	if n := metricValue(t, coordURL, "aegis_cluster_workers_lost_total"); n < 1 {
		t.Errorf("aegis_cluster_workers_lost_total = %v, want >= 1 (dead worker dropped)", n)
	}
}

// TestHeartbeatExpiry pins registry TTL behaviour end to end: a worker
// that stops heartbeating disappears from the fleet.
func TestHeartbeatExpiry(t *testing.T) {
	reg := newRegistry(30*time.Millisecond, nil)
	reg.upsert("w0", "http://unused", "")
	if reg.live() != 1 {
		t.Fatalf("live = %d, want 1", reg.live())
	}
	if !reg.heartbeat("w0") {
		t.Fatal("heartbeat for live worker refused")
	}
	time.Sleep(60 * time.Millisecond)
	if reg.live() != 0 {
		t.Fatalf("live = %d after TTL, want 0", reg.live())
	}
	if reg.heartbeat("w0") {
		t.Fatal("heartbeat for expired worker accepted; it must re-register")
	}
}

// metricValue scrapes one un-labeled metric from GET /metrics.
func metricValue(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
				return v
			}
		}
	}
	return 0
}
