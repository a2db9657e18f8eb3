package serve

import (
	"context"
	"log/slog"

	"aegis/internal/engine"
)

// Runner leases shards to a remote fleet: a coordinator daemon installs
// internal/cluster's Coordinator here, and each job's engine then
// obtains every shard its cache does not hold through LeaseShard
// (engine.Engine.Remote) instead of simulating it locally.  The
// returned shard must validate at the task's content address
// (engine.ValidateShard).
type Runner interface {
	LeaseShard(ctx context.Context, job RunnerJob, task engine.ShardTask) (*engine.Shard, error)
}

// RunnerJob is what a lease needs to know about the job its shard
// belongs to.
type RunnerJob struct {
	// JobID is the job's public ID (j%06d-<spec12>); leases carry it
	// for correlation.
	JobID string
	// Request is the normalized job request — the form that crosses the
	// cluster wire, since a worker can reconstruct the factory and
	// configuration from it (JobRequest.Normalize, SimConfig).
	Request JobRequest
	// Drain soft-stops lease retries when closed: a lease waiting for a
	// worker or backing off returns engine.ErrDraining.
	Drain <-chan struct{}
	// Logger carries the job's correlation chain (request ID, job ID,
	// spec hash); shard-level records should add the shard key.
	Logger *slog.Logger
}
