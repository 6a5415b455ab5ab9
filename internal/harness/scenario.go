package harness

import (
	"cmp"
	"fmt"
	"math/rand"

	"gbcr/internal/fault"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
)

// AvailabilityResult describes a scenario-driven run-to-completion: the job
// runs under periodic checkpointing and an injected fault scenario until it
// finishes, restarting from the latest verified committed epoch after every
// loss.
type AvailabilityResult struct {
	// Wall is the total wall-clock time to finish the job, summed across all
	// attempts (lost work and restart read-back included).
	Wall sim.Time
	// Failures is how many times the whole job was lost and restarted
	// (stochastic MTBF losses plus injected crashes).
	Failures int
	// Checkpoints is how many epochs committed across all attempts.
	Checkpoints int
	// CycleAborts counts checkpoint cycles that aborted (storage write
	// failures) and were retried.
	CycleAborts int
	// CorruptSkipped counts committed epochs that were rejected at restart
	// time because a snapshot no longer verified, forcing fallback to an
	// older epoch.
	CorruptSkipped int
	// Replayed counts logged messages re-injected at restart time (always
	// zero for protocols without sender-based message logging).
	Replayed int
	// Attempts is the number of launches (Failures + 1 when the job
	// finished).
	Attempts int
	// RecoveredRAM, RecoveredLocal, RecoveredBurst, and RecoveredCentral
	// count per-rank restart read-backs by the storage tier that served them
	// (summed across all restarts).
	RecoveredRAM     int
	RecoveredLocal   int
	RecoveredBurst   int
	RecoveredCentral int
	// FinalInst is the workload instance of the attempt that finished, so
	// callers can verify end results against a failure-free reference.
	FinalInst workload.Instance
}

// RunScenario runs a restartable workload to completion with checkpoints
// every interval, under the fault scenario scn. Scripted faults fire at
// their specified global times (summed across attempts); scn.MTBF adds
// stochastic whole-job losses on top. After every loss the job restarts from
// the latest committed epoch whose snapshots still verify — corrupted
// archives are skipped, and with no usable epoch the job restarts from
// scratch. bus, when non-nil, observes every attempt, injected faults
// included, on one timeline.
//
// Determinism: the same cfg, scenario, and interval produce the identical
// sequence of injections, attempts, and events — byte-identical exported
// traces — regardless of host parallelism.
func RunScenario(cfg ClusterConfig, w workload.Restartable, scn fault.Scenario,
	interval sim.Time, bus *obs.Bus) (AvailabilityResult, error) {

	// A bad cluster is reported before a bad scenario, so one configuration
	// gets one error whatever faults it is run under. A phase-triggered
	// crash must name a phase the active protocol has ("crash:phase=sync"
	// can never fire under the uncoordinated protocol), and a burst-buffer
	// outage on a cluster with no burst tier would silently inject nothing.
	proto, err := cfg.resolve()
	if err != nil {
		return AvailabilityResult{}, err
	}
	err = cmp.Or(scn.CheckPhases(proto.Phases()), scn.CheckRanks(cfg.N))
	switch {
	case interval <= 0:
		err = fmt.Errorf("harness: checkpoint interval must be positive, got %v", interval)
	case err == nil && scn.HasKind(fault.BurstBufferOutage) && !cfg.Tiers.Mode.Has(tier.Burst):
		err = fmt.Errorf("harness: scenario injects a burst-buffer outage but storage mode %q has no burst tier", cfg.Tiers.Mode)
	}
	if err != nil {
		return AvailabilityResult{}, err
	}
	rng := rand.New(rand.NewSource(cmp.Or(scn.Seed, 1)))
	sc := &scenario{w: w, interval: interval, inj: fault.NewInjector(scn, bus)}

	var res AvailabilityResult
	const maxAttempts = 1000
	for range maxAttempts {
		res.Attempts++
		sc.offset = res.Wall
		// Stochastic loss horizon for this attempt; without an MTBF the
		// attempt runs until it finishes or a scripted crash kills it.
		sc.limit = -1
		if scn.MTBF > 0 {
			sc.limit = sim.Seconds(rng.ExpFloat64() * scn.MTBF.Seconds())
		}
		c, inst, lost, err := attempt(cfg, bus, w, sc)
		res.Replayed = sc.replayed
		if err != nil {
			return res, err
		}
		res.Checkpoints += c.Coord.Epoch()
		res.CycleAborts += c.Coord.Aborts()
		if !lost {
			res.Wall += c.Job.FinishTime()
			res.FinalInst = inst
			return res, nil
		}
		res.Wall += c.K.Now()
		res.Failures++
		err = res.readBack(c, sc)
		c.K.Shutdown() // release the dead attempt's process goroutines
		if err != nil {
			return res, err
		}
	}
	return res, fmt.Errorf("harness: job did not complete within %d attempts", maxAttempts)
}

// readBack restarts a lost job: the protocol selects the restart line from
// the dead attempt's archive (the newest verified committed epoch for the
// blocking protocols, a per-rank, possibly mixed-epoch line for the
// uncoordinated one), its states become sc's, and the tier stack prices the
// read-back (tier.Hierarchy.ReadBack), counted in res by the level that
// served each rank. With no usable line, the previous states (or nil: from
// scratch) carry over unchanged.
func (res *AvailabilityResult) readBack(c *Cluster, sc *scenario) error {
	line := c.Coord.Protocol().RestartLine(c.Coord.Snapshots())
	res.CorruptSkipped += line.Skipped
	if line.Empty() {
		return nil
	}
	sc.app, sc.lib = make([][]byte, len(line.Snaps)), make([][]byte, len(line.Snaps))
	for i, s := range line.Snaps {
		if s != nil { // a nil snapshot restarts its rank from scratch
			sc.app[i], sc.lib[i] = s.AppState, s.LibState
		}
	}
	took, levels, err := c.Tiers.ReadBack(res.Wall, line.Snaps)
	if err != nil {
		return err
	}
	for _, level := range levels {
		switch level {
		case tier.RAM:
			res.RecoveredRAM++
		case tier.Local:
			res.RecoveredLocal++
		case tier.Burst:
			res.RecoveredBurst++
		case tier.Central:
			res.RecoveredCentral++
		}
	}
	res.Wall += took
	return nil
}
