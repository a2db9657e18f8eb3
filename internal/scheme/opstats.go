package scheme

// OpStats counts the controller operations a scheme performed, the cost
// dimension the paper discusses around Figure 8 ("intensive inversion
// writes") and when motivating Aegis-rw ("removes extra inversion
// writes").  All counters are cumulative over the instance's life.
type OpStats struct {
	// Requests is the number of Write calls served (failed ones
	// included).
	Requests int64
	// RawWrites is the number of physical block writes issued,
	// including inversion rewrites; RawWrites − Requests is the extra
	// write traffic the scheme generated.  It can fall below Requests:
	// a Write refused from faults already known (Aegis-rw's findSlope
	// or RDIS's computeParity failing before the first pass) counts a
	// request but never reaches WriteRaw, and each dying block makes
	// one such refused Write.
	RawWrites int64
	// VerifyReads is the number of verification reads performed.
	VerifyReads int64
	// Repartitions counts configuration changes (slope increments for
	// Aegis, partition-vector growth for SAFER).
	Repartitions int64
	// Inversions is the number of physical writes issued with at least
	// one group (or invertible region) stored inverted — the "inversion
	// writes" Figure 8 discusses.
	Inversions int64
	// Salvages is the number of write requests that succeeded only
	// after at least one failed verification pass, i.e. requests the
	// scheme actively recovered rather than stored cleanly first try.
	Salvages int64
}

// OpReporter is implemented by schemes that track their operation costs.
type OpReporter interface {
	OpStats() OpStats
}

// ExtraWritesPerRequest returns the scheme's write amplification beyond
// one physical write per request: (RawWrites − Requests) / Requests.
// It is slightly negative for schemes that rarely need a second pass
// but refuse the Write that kills each block without writing it (see
// RawWrites): about −1/lifetime for Aegis-rw and RDIS.
func (s OpStats) ExtraWritesPerRequest() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.RawWrites-s.Requests) / float64(s.Requests)
}
