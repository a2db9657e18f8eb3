// Package cluster distributes aegisd jobs over a fleet of worker
// daemons.  One daemon runs as the coordinator: it accepts jobs through
// the ordinary serve API and runs them through the same engine shard
// loop as a standalone daemon, except that each shard the cache does
// not hold is leased to a registered worker over HTTP
// (engine.Engine.Remote).  Workers compute leased shards with
// engine.ComputeShard and ship the aegis.shard/v1 document back; the
// coordinator validates it at the leased address and the engine caches
// and merges it like a local shard, so a cluster run's aegis.job/v1
// result is byte-identical to the standalone one (the cluster-parity
// test pins this).
//
// Fault model: a worker is leased one shard at a time and may die, hang
// or disconnect at any point.  Leases carry a deadline; a lease whose
// worker errors or times out is re-issued to another worker
// (work-stealing) with bounded retries and jittered backoff.  Worker
// registrations expire on missed heartbeats, so a dead worker stops
// receiving leases within one TTL.  Because shards are content-
// addressed and shard files are written via temp+rename, a stolen lease
// computed twice converges on identical bytes — duplicate completions
// are idempotent, not corrupting.
//
// See DESIGN.md §16 for the protocol walk-through.
package cluster

import (
	"bytes"
	"encoding/json"
	"time"

	"aegis/internal/engine"
	"aegis/internal/serve"
)

// LeaseSchema identifies the coordinator→worker lease payload (and the
// worker's completion payload).  Bump the suffix on any backwards-
// incompatible change, the same discipline as aegis.shard and
// aegis.job.  Declared in serve so the version report can carry it
// without an import cycle.
const LeaseSchema = serve.LeaseSchema

// Wire paths.  ComputePath is served by workers; the Workers* paths by
// the coordinator.
const (
	// ComputePath is the worker endpoint a lease is POSTed to.
	ComputePath = "/v1/cluster/compute"
	// WorkersPath is the coordinator endpoint workers register at
	// (POST) and operators inspect (GET).
	WorkersPath = "/v1/workers"
	// HeartbeatPathSuffix: POST {WorkersPath}/{name}/heartbeat.
	HeartbeatPathSuffix = "/heartbeat"
)

// Lease is one unit of leased work: compute the shard covering global
// trials [TrialLo, TrialHi) of the job's simulation.  The spec is the
// job's normalized request — everything a worker needs to reconstruct
// the scheme factory and simulation configuration locally.  ConfigHash
// and ShardKey are the coordinator's derivation; the worker re-derives
// both with its own build's git SHA and refuses the lease on any
// disagreement, so a version-skewed worker can never contribute a shard
// keyed for a different binary.
type Lease struct {
	Schema  string `json:"schema"`
	LeaseID string `json:"lease_id"`
	JobID   string `json:"job_id"`
	// Spec is the job's normalized JobRequest.
	Spec serve.JobRequest `json:"spec"`
	// SchemeName is the resolved factory's display name (e.g. "Aegis
	// 9x61") — the name shards are labeled and keyed under, as opposed
	// to Spec.Scheme, the request grammar string that resolves to it.
	SchemeName string `json:"scheme_name"`
	// Kind is the shard kind (engine.KindBlocks/KindPages/KindCurve).
	Kind string `json:"kind"`
	// Curve carries the failure-curve probe parameters (zero unless
	// Kind is curve); folded into ConfigHash on both sides.
	Curve engine.CurveParams `json:"curve,omitempty"`
	// ConfigHash and ShardKey are the coordinator's content address for
	// the shard (engine.ConfigHash, engine.ShardKey).
	ConfigHash string `json:"config_hash"`
	ShardKey   string `json:"shard_key"`
	TrialLo    int    `json:"trial_lo"`
	TrialHi    int    `json:"trial_hi"`
	// Attempt counts prior issues of this shard's lease (0 = first);
	// re-issues after a worker failure increment it.
	Attempt int `json:"attempt"`
}

// LeaseResult is the worker's completion payload: the computed (or
// cache-loaded) aegis.shard/v1 document, echoing the lease identity so
// the coordinator can match and validate it.
type LeaseResult struct {
	Schema   string `json:"schema"`
	LeaseID  string `json:"lease_id"`
	ShardKey string `json:"shard_key"`
	// Worker is the computing worker's registered name.
	Worker string `json:"worker"`
	// CacheHit reports whether the worker served the shard from its own
	// cache rather than computing it.
	CacheHit bool          `json:"cache_hit,omitempty"`
	Shard    *engine.Shard `json:"shard"`
}

// RegisterRequest is the worker→coordinator registration payload
// (POST /v1/workers).  Re-POSTing is an upsert: the same name refreshes
// the TTL and may move to a new URL (a restarted worker on a new port).
type RegisterRequest struct {
	// Name identifies the worker; it must be unique in the fleet and
	// stable across heartbeats.
	Name string `json:"name"`
	// BaseURL is where the coordinator reaches the worker's compute
	// endpoint (scheme://host:port).
	BaseURL string `json:"base_url"`
	// CodeVersion is the worker binary's git SHA (obs.GitSHA);
	// informational — the lease handshake enforces version agreement.
	CodeVersion string `json:"code_version,omitempty"`
}

// RegisterResponse acknowledges a registration with the lease the
// worker holds on its fleet membership: heartbeat at least once per
// TTL or be dropped.
type RegisterResponse struct {
	Name string `json:"name"`
	// TTLSeconds is the registration's time-to-live; heartbeat sooner.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// WorkerInfo is one row of GET /v1/workers: the operator's view of the
// fleet.
type WorkerInfo struct {
	Name        string    `json:"name"`
	BaseURL     string    `json:"base_url"`
	CodeVersion string    `json:"code_version,omitempty"`
	ExpiresAt   time.Time `json:"expires_at"`
	// LeasesDone counts shards this worker returned successfully.
	LeasesDone int64 `json:"leases_done"`
}

// decodeStrict unmarshals JSON refusing unknown fields — wire payloads
// are versioned, so an unknown field means a version-skewed peer, which
// must surface as an error rather than be silently dropped.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
