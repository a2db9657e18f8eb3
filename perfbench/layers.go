package main

import (
	"strings"

	"aegis/internal/experiments"
	"aegis/internal/scheme"
	"aegis/internal/serve"
)

// rosterEntry is one scheme of the fixed roster the per-layer scheme
// and sim metrics are reported for: three sliced-capable schemes and
// three scalar-only ones.
type rosterEntry struct {
	slug string // metric-name form
	spec string // serve.SchemeGrammar form; "" = no protection
}

var roster = []rosterEntry{
	{"aegis-9x61", "aegis:61"},
	{"ecp6", "ecp:6"},
	{"none", ""},
	{"safer32", "safer:32"},
	{"aegis-rw-9x61", "aegis-rw:61"},
	{"rdis-3", "rdis:3"},
}

// factory resolves the entry through the daemon's scheme grammar, the
// one place scheme names are parsed.
func (r rosterEntry) factory(blockBits int) (scheme.Factory, error) {
	if r.spec == "" {
		return scheme.NoneFactory{Bits: blockBits}, nil
	}
	return serve.ResolveScheme(r.spec, blockBits)
}

// slugOf maps a factory display name ("Aegis 9x61") to its metric form.
func slugOf(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), " ", "-")
}

// simKinds are the sim entry points lifetime-wide times per scheme.
var simKinds = []string{"blocks", "pages"}

// perLayer lists the metrics a --trace 1 run reports.  A metric whose
// layer the workload does not reach reads 0 (README.md has the table).
func perLayer() []metricSpec {
	s := []metricSpec{
		{"trace.overhead_s", "s"},
		{"xrand.fill_ns_per_word", "ns"},
		{"xrand.seed_ns", "ns"},
		{"bitvec.xor_ns", "ns"},
		{"bitvec.popcount_and_ns", "ns"},
		{"plane.group_mask_ns", "ns"},
		{"pcm.write_raw_ns", "ns"},
		{"pcm.lane_write_raw_ns", "ns"},
	}
	for _, r := range roster {
		p := "scheme." + r.slug
		s = append(s,
			metricSpec{p + ".write_ns", "ns"},
			metricSpec{p + ".extra_writes_per_request", "ratio"},
			metricSpec{p + ".repartitions_per_write", "ratio"})
	}
	for _, r := range roster {
		for _, k := range simKinds {
			s = append(s, metricSpec{"sim." + k + "." + r.slug + "_s", "s"})
		}
	}
	s = append(s, metricSpec{"sim.host_ns_per_write", "ns"})
	for _, id := range experiments.IDs {
		s = append(s, metricSpec{"experiments." + id + "_s", "s"})
	}
	return append(s,
		metricSpec{"engine.shards_computed", "count"},
		metricSpec{"engine.cache_hit_ratio", "ratio"},
		metricSpec{"engine.shard_compute_ms", "ms"},
		metricSpec{"serve.submit_ms", "ms"},
		metricSpec{"serve.queue_wait_ms", "ms"},
		metricSpec{"serve.job_compute_ms", "ms"},
		metricSpec{"serve.job_overhead_ms", "ms"},
		metricSpec{"serve.result_bytes", "bytes"},
		metricSpec{"serve.rejected", "count"},
		metricSpec{"serve.dedup_409", "count"},
		metricSpec{"cluster.lease_rtt_ms", "ms"},
		metricSpec{"cluster.lease_rtt_tail_ms", "ms"},
		metricSpec{"cluster.worker_compute_ms", "ms"},
		metricSpec{"cluster.lease_overhead_ms", "ms"},
		metricSpec{"cluster.leases", "count"},
		metricSpec{"cluster.leases_retried", "count"},
		metricSpec{"cluster.lease_bytes", "bytes"},
		metricSpec{"client.retries", "count"},
	)
}
