// Package model implements the paper's analytic equations (Section 5) for
// checkpoint delay, which its tests check against the back-of-envelope
// estimates in Section 3.1, and Young's optimal checkpoint interval, which
// the figures use.
package model

import (
	"math"

	"gbcr/internal/sim"
)

// Params describes a checkpointing scenario.
type Params struct {
	Procs       int     // total number of MPI processes (N)
	GroupSize   int     // checkpoint group size (g); 0 means all at once
	Footprint   float64 // per-process memory footprint in bytes (S)
	AggregateBW float64 // aggregate storage throughput in bytes/second (B)
	ClientBW    float64 // per-client cap in bytes/second (0 = unlimited)
}

func (p Params) groups() int {
	g := p.GroupSize
	if g <= 0 || g > p.Procs {
		g = p.Procs
	}
	n := p.Procs / g
	if p.Procs%g != 0 {
		n++
	}
	return n
}

func (p Params) effSize() int {
	g := p.GroupSize
	if g <= 0 || g > p.Procs {
		g = p.Procs
	}
	return g
}

// perProcBW is the bandwidth one process obtains when m processes write
// concurrently.
func (p Params) perProcBW(m int) float64 {
	bw := p.AggregateBW / float64(m)
	if p.ClientBW > 0 && bw > p.ClientBW {
		bw = p.ClientBW
	}
	return bw
}

// individualTime implements equations (2a) and (3a): the storage-dominated
// downtime of one process,
//
//	T_individual ≈ footprint × (processes writing concurrently) / B.
func (p Params) individualTime() sim.Time {
	g := p.effSize()
	return sim.Seconds(p.Footprint / p.perProcBW(g))
}

// totalTime implements equations (2b) and (3b): for the regular protocol it
// equals the individual time; for group-based checkpointing it is the number
// of groups times the per-group time.
func (p Params) totalTime() sim.Time {
	g := p.effSize()
	return sim.Seconds(float64(p.groups()) * p.Footprint / p.perProcBW(g))
}

// Thunderbird reproduces the Section 3.1 estimate: the Sandia Thunderbird
// cluster (4,480 nodes with 8,960 CPUs, 6.0 GB/s storage throughput)
// checkpointing 1 GB per process needs about 1493 seconds.
//
//lint:allow-unused the paper's own Section 3.1 worked example; model_test.go pins its 1493 s
func Thunderbird() Params {
	return Params{
		Procs:       8960, // one process per CPU
		Footprint:   1 << 30,
		AggregateBW: 6 * (1 << 30), // 6.0 GB/s
	}
}

// OptimalInterval returns Young's approximation of the checkpoint interval
// that minimizes expected lost work plus checkpoint overhead:
// sqrt(2 × checkpointCost × MTBF). Group-based checkpointing lowers the
// effective checkpoint cost (the effective delay instead of N·S/B), which
// shortens the optimal interval and reduces expected lost work per failure.
func OptimalInterval(checkpointCost, mtbf sim.Time) sim.Time {
	if checkpointCost <= 0 || mtbf <= 0 {
		return 0
	}
	return sim.Seconds(math.Sqrt(2 * checkpointCost.Seconds() * mtbf.Seconds()))
}

// ExpectedOverheadFraction estimates the fraction of wall time lost to
// checkpointing plus post-failure rework when checkpointing every interval
// with the given per-checkpoint cost on a machine with the given MTBF
// (first-order model: cost/interval + interval/(2·MTBF)).
//
//lint:allow-unused the first-order overhead equation OptimalInterval minimizes; model_test.go checks one against the other
func ExpectedOverheadFraction(checkpointCost, interval, mtbf sim.Time) float64 {
	if interval <= 0 || mtbf <= 0 {
		return math.Inf(1)
	}
	return checkpointCost.Seconds()/interval.Seconds() + interval.Seconds()/(2*mtbf.Seconds())
}
