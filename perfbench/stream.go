package main

import (
	"math"
	"math/rand"

	"aegis/pkg/client"
)

// streamItem is one submission of the service workloads' spec stream.
type streamItem struct {
	Spec   client.JobSpec
	Tenant string
	// Repeat is the index of the earlier item whose spec this one
	// resubmits, or -1 for a fresh spec.
	Repeat int
}

// Stream shape: after the first few, about 30 % of the submissions
// repeat an earlier spec; the rest are fresh specs over the roster's
// schemes.  The share keeps the median job a fresh computation rather
// than on the edge between the fast cache reads and the computed jobs.
// The whole shape is assumed, not fitted to recorded traffic; README.md
// says why it differs from the load gate's mix.
const (
	repeatShare  = 0.3
	freshPrefix  = 4 // leading items that are always fresh
	streamTenant = 2
)

// serviceSchemes are the roster schemes the daemon's grammar names.
func serviceSchemes() []string {
	var out []string
	for _, r := range roster {
		if r.spec != "" {
			out = append(out, r.spec)
		}
	}
	return out
}

// specStream generates the seeded job stream.  Item i depends only on
// the seed and on items before it, never on timing, so two runs with
// one seed submit the same sequence.
type specStream struct {
	rng     *rand.Rand
	schemes []string
	items   []streamItem
	fresh   []int // indices of fresh items, in order
}

func newSpecStream(seed int64) *specStream {
	return &specStream{rng: rand.New(rand.NewSource(seed)), schemes: serviceSchemes()}
}

// at returns item i, generating the stream up to it.
func (s *specStream) at(i int) streamItem {
	for len(s.items) <= i {
		s.items = append(s.items, s.next())
	}
	return s.items[i]
}

func (s *specStream) next() streamItem {
	idx := len(s.items)
	tenant := "t" + string(rune('0'+s.rng.Intn(streamTenant)))
	if idx >= freshPrefix && s.rng.Float64() < repeatShare {
		// Zipf-like (s = 1) over every earlier fresh spec, the most
		// recent first: P(rank r) ∝ 1/(r+1).
		n := len(s.fresh)
		r := int(math.Exp(s.rng.Float64()*math.Log(float64(n+1)))) - 1
		if r >= n {
			r = n - 1
		}
		orig := s.fresh[n-1-r]
		return streamItem{Spec: s.items[orig].Spec, Tenant: tenant, Repeat: orig}
	}
	s.fresh = append(s.fresh, idx)
	return streamItem{Spec: s.freshSpec(), Tenant: tenant, Repeat: -1}
}

// freshSpec draws a small job: the quick preset with trial counts cut
// so a job computes in tens of milliseconds.
func (s *specStream) freshSpec() client.JobSpec {
	spec := client.JobSpec{
		Scheme: s.schemes[s.rng.Intn(len(s.schemes))],
		Seed:   1 + s.rng.Int63n(1<<40),
	}
	switch k := s.rng.Float64(); {
	case k < 0.5:
		spec.Kind, spec.Trials = "blocks", 48
	case k < 0.75:
		spec.Kind, spec.Trials, spec.PageBytes = "pages", 8, 512
	default:
		spec.Kind, spec.Trials = "curve", 32
	}
	return spec
}
