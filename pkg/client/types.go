package client

import (
	"encoding/json"
	"fmt"
	"time"
)

// Wire types mirroring aegisd's JSON (internal/serve).  They are
// declared here rather than imported so the package stays a
// self-contained, dependency-free client: vendor this directory and the
// Go standard library is all you need.

// Job states as reported by the daemon.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	StateAborted = "aborted"
)

// TenantHeader carries the tenant name on every request; aegisd
// accounts quotas and fair scheduling per tenant.
const TenantHeader = "X-Aegis-Tenant"

// RequestIDHeader carries the correlation ID; aegisd echoes it and
// stamps it on every log record the request's job produces.
const RequestIDHeader = "X-Request-Id"

// JobSpec is the POST /v1/jobs payload.  Zero-valued fields take the
// daemon's defaults; {Kind: "blocks", Scheme: "aegis:61"} is a complete
// spec.
type JobSpec struct {
	Kind           string   `json:"kind"`
	Scheme         string   `json:"scheme"`
	Preset         string   `json:"preset,omitempty"`
	Trials         int      `json:"trials,omitempty"`
	BlockBits      int      `json:"block_bits,omitempty"`
	PageBytes      int      `json:"page_bytes,omitempty"`
	Seed           int64    `json:"seed,omitempty"`
	MaxFaults      int      `json:"max_faults,omitempty"`
	WritesPerStep  int      `json:"writes_per_step,omitempty"`
	Bias           *float64 `json:"bias,omitempty"`
	Shards         int      `json:"shards,omitempty"`
	TimeoutSeconds float64  `json:"timeout_seconds,omitempty"`
}

// JobStatus is the daemon's job-status document (submit and get).
type JobStatus struct {
	ID            string     `json:"id"`
	Tenant        string     `json:"tenant"`
	State         string     `json:"state"`
	QueuePosition int        `json:"queue_position"`
	Error         string     `json:"error,omitempty"`
	CreatedAt     time.Time  `json:"created_at"`
	StartedAt     *time.Time `json:"started_at,omitempty"`
	FinishedAt    *time.Time `json:"finished_at,omitempty"`
	ResultURL     string     `json:"result_url,omitempty"`
	// Progress is the live progress snapshot, kept raw so this package
	// does not chase the daemon's counter schema.
	Progress json.RawMessage `json:"progress"`
	Request  json.RawMessage `json:"request"`
}

// Terminal reports whether the job can no longer change state.
func (s *JobStatus) Terminal() bool {
	switch s.State {
	case StateDone, StateFailed, StateAborted:
		return true
	}
	return false
}

// VersionInfo is the GET /v1/version response.
type VersionInfo struct {
	Service   string            `json:"service"`
	GitSHA    string            `json:"git_sha"`
	GoVersion string            `json:"go_version"`
	OS        string            `json:"os"`
	Arch      string            `json:"arch"`
	Schemas   map[string]string `json:"schemas"`
}

// APIError is any non-2xx daemon response: the HTTP status, the
// structured error body, and — when the daemon sent them — the backoff
// hint and the ID of the already-running duplicate job.
type APIError struct {
	StatusCode int
	// Field names the offending request field on validation failures.
	Field   string
	Message string
	// RequestID is the correlation ID the daemon assigned; quote it to
	// find the failure in the daemon's logs.
	RequestID string
	// JobID is set on 409: an identical job is already live under this
	// ID — poll or wait on it instead of resubmitting.
	JobID string
	// RetryAfter is the daemon's parsed Retry-After hint (zero if the
	// response carried none).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = "request failed"
	}
	if e.Field != "" {
		msg = e.Field + ": " + msg
	}
	return fmt.Sprintf("aegisd: %d: %s", e.StatusCode, msg)
}

// IsDuplicate reports whether the error is a 409 duplicate-submission
// answer; JobID then names the live job.
func (e *APIError) IsDuplicate() bool { return e.StatusCode == 409 && e.JobID != "" }
