package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aegis/pkg/client"
)

// TestClusterDrainPersistsInFlight closes a coordinator daemon's drain
// while leases are in flight: the job must end aborted with exactly the
// in-flight shards persisted, and a fresh coordinator on the same cache
// directory must finish the spec leasing only the shards never started.
func TestClusterDrainPersistsInFlight(t *testing.T) {
	const shards, inFlight = 6, 4 // testServe: Shards 6, EngineWorkers 4
	spec := client.JobSpec{Kind: "blocks", Scheme: "aegis:11", BlockBits: 64, Trials: 600, Seed: 123}
	cacheDir := t.TempDir()

	srv := testServe(t, cacheDir)
	coord := NewCoordinator(Options{Metrics: srv.Metrics()})
	coord.Mount(srv)
	srv.SetRunner(coord)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// The worker holds every lease until gate opens; arrived is sized to
	// the shard count so no lease ever blocks on reporting itself.
	arrived := make(chan struct{}, shards)
	gate := make(chan struct{})
	var openGate sync.Once
	w := NewWorker(WorkerOptions{Name: "w0"})
	ws := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-gate
		w.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(ws.Close)
	t.Cleanup(func() { openGate.Do(func() { close(gate) }) }) // runs before ws.Close
	registerWorker(t, ts.URL, "w0", ws.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl, err := client.New(ts.URL, client.Options{PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for i := 0; i < inFlight; i++ {
		select {
		case <-arrived:
		case <-ctx.Done():
			t.Fatalf("only %d of %d leases reached the worker", i, inFlight)
		}
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	for !healthzDraining(t, ts.URL) {
		time.Sleep(time.Millisecond)
	}
	openGate.Do(func() { close(gate) })
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	final, err := cl.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateAborted {
		t.Fatalf("drained job ended %s (%s), want %s", final.State, final.Error, client.StateAborted)
	}
	files, _ := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if len(files) != inFlight {
		t.Errorf("%d shards persisted, want the %d in flight", len(files), inFlight)
	}
	if n := metricValue(t, ts.URL, "aegis_cluster_leases_issued_total"); n != inFlight {
		t.Errorf("drained daemon issued %v leases, want %d", n, inFlight)
	}

	fresh := testServe(t, cacheDir)
	_, freshURL := testCluster(t, fresh, 2, Options{})
	raw := runJob(t, freshURL, spec)
	if n := metricValue(t, freshURL, "aegis_cluster_leases_issued_total"); n != shards-inFlight {
		t.Errorf("fresh coordinator issued %v leases, want %d (persisted shards must not be leased)", n, shards-inFlight)
	}
	var doc struct {
		Sharding struct {
			CacheHits   int64 `json:"cache_hits"`
			CacheMisses int64 `json:"cache_misses"`
		} `json:"sharding"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Sharding.CacheHits != inFlight || doc.Sharding.CacheMisses != shards-inFlight {
		t.Errorf("resumed job: hits=%d misses=%d, want %d/%d",
			doc.Sharding.CacheHits, doc.Sharding.CacheMisses, inFlight, shards-inFlight)
	}
}

// healthzDraining reports whether the daemon at baseURL has started
// draining (its drain channel is closed).
func healthzDraining(t *testing.T, baseURL string) bool {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Draining
}
