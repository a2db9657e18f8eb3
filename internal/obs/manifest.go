package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ManifestSchema identifies the run-manifest format.  Bump the suffix on
// any backwards-incompatible field change.  v2 added per-scheme
// histograms and the event-trace summary; v3 added shard-engine
// provenance (sharding); v1 and v2 files still load.
const (
	ManifestSchema   = "aegis.run-manifest/v3"
	ManifestSchemaV2 = "aegis.run-manifest/v2"
	ManifestSchemaV1 = "aegis.run-manifest/v1"
)

// Table is the JSON form of one rendered result table (the rows
// internal/report formats as text).
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Point is one (x, y) sample of a figure curve.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is the JSON form of one named figure curve.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Manifest is the machine-readable record of one harness run: what ran,
// under which configuration and environment, how long it took, what the
// schemes did (counter totals) and what came out (tables and series).
type Manifest struct {
	Schema      string            `json:"schema"`
	Experiment  string            `json:"experiment"`
	Preset      string            `json:"preset"`
	Seed        int64             `json:"seed"`
	Workers     int               `json:"workers"`
	GoVersion   string            `json:"go_version"`
	GOOS        string            `json:"goos"`
	GOARCH      string            `json:"goarch"`
	NumCPU      int               `json:"num_cpu"`
	GitSHA      string            `json:"git_sha"`
	StartedAt   time.Time         `json:"started_at"`
	WallSeconds float64           `json:"wall_seconds"`
	CPUSeconds  float64           `json:"cpu_seconds"`
	Config      any               `json:"config"`
	Counters    map[string]Totals `json:"counters"`
	// Histograms carries the per-scheme distributions (lifetimes,
	// repartitions per block, salvage depth, extra writes).  v2 only.
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	// Events summarizes the decision-event trace written alongside the
	// manifest, when one was requested.  v2 only.
	Events *EventTraceInfo `json:"events,omitempty"`
	// Sharding records how the shard engine split and cached the run's
	// simulations, when sharding or shard caching was enabled.  v3 only.
	Sharding *ShardingInfo `json:"sharding,omitempty"`
	Tables   []Table       `json:"tables"`
	Series   []Series      `json:"series,omitempty"`
}

// ShardingInfo is the manifest's record of shard-engine provenance: the
// shard split, where the content-addressed cache lives, whether cached
// shards were eligible to be loaded, and the resulting cache traffic.
type ShardingInfo struct {
	// ShardSchema is the shard file format the run produced/consumed
	// (aegis.shard/v1).
	ShardSchema string `json:"shard_schema"`
	// Shards is the number of shards each simulation was split into.
	Shards int `json:"shards"`
	// Workers is the number of shards computed concurrently (the
	// effective engine worker count; scheduling never affects results).
	Workers int `json:"workers,omitempty"`
	// Lanes echoes an aegis.job/v1 request's ignored "lanes" field
	// (DESIGN.md §11); no run uses it.
	Lanes int `json:"lanes,omitempty"`
	// CacheDir is the shard cache directory ("" = persistence off).
	CacheDir string `json:"cache_dir,omitempty"`
	// Resume reports whether cached shards were eligible to be loaded.
	Resume bool `json:"resume"`
	// CacheHits, CacheMisses and Persisted are the run's shard-cache
	// traffic totals.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Persisted   int64 `json:"persisted"`
}

// EventTraceInfo records where a run's decision-event trace went and how
// sampling treated it.
type EventTraceInfo struct {
	Path        string `json:"path"`
	Schema      string `json:"schema"`
	SampleEvery int64  `json:"sample_every"`
	Written     int64  `json:"written"`
	Dropped     int64  `json:"dropped"`
}

// NewManifest returns a manifest stamped with the schema version and the
// current build/host environment.
func NewManifest(experiment string) *Manifest {
	return &Manifest{
		Schema:     ManifestSchema,
		Experiment: experiment,
		GoVersion:  GoVersion(),
		GOOS:       GOOS(),
		GOARCH:     GOARCH(),
		NumCPU:     NumCPU(),
		GitSHA:     GitSHA(),
		StartedAt:  time.Now().UTC(),
		Counters:   map[string]Totals{},
	}
}

// Finish records the run duration: wall time since start and the
// process's cumulative CPU time.
func (m *Manifest) Finish(start time.Time) {
	m.WallSeconds = time.Since(start).Seconds()
	m.CPUSeconds = ProcessCPUSeconds()
}

// Encode serializes the manifest as indented, key-stable JSON.
func (m *Manifest) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Write serializes the manifest to path, creating parent directories as
// needed.  The write goes through a temp file and rename so a crashed
// run never leaves a truncated manifest behind.
func (m *Manifest) Write(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadManifest reads and validates a manifest written by Write.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parse manifest %s: %w", path, err)
	}
	if m.Schema != ManifestSchema && m.Schema != ManifestSchemaV2 && m.Schema != ManifestSchemaV1 {
		return nil, fmt.Errorf("obs: manifest %s has schema %q, want %q (or %q, %q)", path, m.Schema, ManifestSchema, ManifestSchemaV2, ManifestSchemaV1)
	}
	return &m, nil
}
