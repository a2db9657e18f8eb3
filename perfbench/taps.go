package main

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// recorder collects what the service layers reveal through their public
// seams: the daemon's and workers' structured logs, the load clients'
// HTTP transport, the coordinator's lease transport and the workers'
// compute handler.  It records only while on is set (the traced passes);
// otherwise every tap passes straight through.
type recorder struct {
	on atomic.Bool
	// tr receives the lease spans; set before on is first stored.
	tr *tracer

	// Client side: logical API calls made and HTTP requests sent.
	calls, requests, rejected atomic.Int64

	mu           sync.Mutex
	shardElapsed []float64 // ms, one per "shard computed" record
	leaseSeq     int64
	leases       map[int64]*leaseTiming
}

// leaseTiming pairs the coordinator's view of one lease with the
// worker's.
type leaseTiming struct {
	rtt, compute time.Duration
	bytes        int64
}

func newRecorder() *recorder { return &recorder{leases: make(map[int64]*leaseTiming)} }

// ---- slog.Handler: engine shard records ----

func (r *recorder) Enabled(context.Context, slog.Level) bool { return r.on.Load() }

func (r *recorder) Handle(_ context.Context, rec slog.Record) error {
	if rec.Message != "shard computed" {
		return nil
	}
	rec.Attrs(func(a slog.Attr) bool {
		if a.Key == "elapsed" {
			r.mu.Lock()
			r.shardElapsed = append(r.shardElapsed, ms(a.Value.Duration()))
			r.mu.Unlock()
			return false
		}
		return true
	})
	return nil
}

func (r *recorder) WithAttrs([]slog.Attr) slog.Handler { return r }
func (r *recorder) WithGroup(string) slog.Handler      { return r }

// ---- load-client transport ----

type clientTap struct {
	r    *recorder
	next http.RoundTripper
}

func (c clientTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if c.r.on.Load() {
		c.r.requests.Add(1)
		if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
			c.r.rejected.Add(1)
		}
	}
	return resp, err
}

// ---- coordinator → worker lease transport ----

// leaseHeader carries the recorder's lease number from the lease
// transport to the worker tap; the daemon ignores it.
const leaseHeader = "X-Perfbench-Lease"

type leaseTap struct {
	r    *recorder
	next http.RoundTripper
}

func (l leaseTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if !l.r.on.Load() {
		return l.next.RoundTrip(req)
	}
	l.r.mu.Lock()
	l.r.leaseSeq++
	seq := l.r.leaseSeq
	l.r.leases[seq] = &leaseTiming{bytes: req.ContentLength}
	l.r.mu.Unlock()
	req = req.Clone(req.Context())
	req.Header.Set(leaseHeader, strconv.FormatInt(seq, 10))
	start := time.Now()
	resp, err := l.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	// The round trip ends when the caller has read the lease result.
	resp.Body = &leaseBody{ReadCloser: resp.Body, done: func(n int64) {
		end := time.Now()
		l.r.tr.record("cluster.lease", 0, start, end)
		l.r.mu.Lock()
		lt := l.r.leases[seq]
		lt.rtt = end.Sub(start)
		lt.bytes += n
		l.r.mu.Unlock()
	}}
	return resp, nil
}

type leaseBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *leaseBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *leaseBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// ---- worker compute handler ----

type workerTap struct {
	r    *recorder
	next http.Handler
}

func (w workerTap) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	seq, err := strconv.ParseInt(req.Header.Get(leaseHeader), 10, 64)
	if err != nil || !w.r.on.Load() {
		w.next.ServeHTTP(rw, req)
		return
	}
	start := time.Now()
	w.next.ServeHTTP(rw, req)
	end := time.Now()
	w.r.tr.record("cluster.worker_compute", 0, start, end)
	w.r.mu.Lock()
	if lt := w.r.leases[seq]; lt != nil {
		lt.compute = end.Sub(start)
	}
	w.r.mu.Unlock()
}
