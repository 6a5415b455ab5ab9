package harness

import (
	"errors"
	"fmt"
	"math/rand"

	"gbcr/internal/cr"
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
	// gets one error whatever faults it is run under.
	if err := cfg.Validate(); err != nil {
		return AvailabilityResult{}, err
	}
	if interval <= 0 {
		return AvailabilityResult{}, fmt.Errorf("harness: checkpoint interval must be positive, got %v", interval)
	}
	proto, err := cfg.CR.ResolveProtocol(cfg.N, cfg.MPI.LogMessages)
	if err != nil {
		return AvailabilityResult{}, err
	}
	// Phase-triggered crashes must name a phase the active protocol has:
	// "crash:phase=sync" can never fire under the uncoordinated protocol.
	if err := scn.CheckPhases(proto.Phases()); err != nil {
		return AvailabilityResult{}, err
	}
	if err := scn.CheckRanks(cfg.N); err != nil {
		return AvailabilityResult{}, err
	}
	// A burst-buffer outage on a cluster with no burst tier would silently
	// inject nothing; reject it like an unknown phase.
	if scn.HasKind(fault.BurstBufferOutage) && !cfg.Tiers.Mode.HasBurst() {
		return AvailabilityResult{}, fmt.Errorf("harness: scenario injects a burst-buffer outage but storage mode %q has no burst tier", cfg.Tiers.Mode)
	}
	seed := scn.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	inj := fault.NewInjector(scn, bus)

	var res AvailabilityResult
	var appStates [][]byte // nil on the first attempt
	var libStates [][]byte
	const maxAttempts = 1000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		res.Attempts++
		offset := res.Wall
		c, err := NewCluster(cfg)
		if err != nil {
			return res, err
		}
		if bus != nil {
			c.AttachObs(bus)
		}
		inst, err := w.LaunchFrom(c.Job, appStates)
		if err != nil {
			return res, err
		}
		c.Coord.SetCapture(inst.Capture)
		c.footprints(inst)
		if libStates != nil {
			for i := 0; i < cfg.N; i++ {
				if err := c.Job.Rank(i).RestoreLibState(libStates[i]); err != nil {
					return res, err
				}
			}
			// Message-logging restart: replay logged messages the restored
			// receivers had not yet incorporated (a no-op without logs). This
			// is what reconciles a recovery line whose ranks resumed from
			// different epochs.
			res.Replayed += c.Job.ReplayLogs()
		}
		inj.Arm(fault.Target{K: c.K, Job: c.Job, Storage: c.Storage, Fabric: c.Fabric, Coord: c.Coord, Tiers: c.Tiers}, offset)
		// Periodic checkpoints: the next request is scheduled when the
		// previous cycle completes, so cycles never overlap even if one runs
		// longer than the interval. Aborted cycles reschedule themselves.
		c.Coord.ScheduleCheckpoint(interval)
		c.Coord.OnCycleDone = func(*cr.CycleReport) {
			inj.OnEpochCommitted(c.Coord.Snapshots(), c.Coord.Epoch(), offset+c.K.Now())
			if !c.Job.Finished() {
				c.Coord.ScheduleCheckpoint(c.K.Now() + interval)
			}
		}

		// Stochastic loss horizon for this attempt; without an MTBF the
		// attempt runs until it finishes or a scripted crash kills it.
		limit := sim.Time(-1)
		if scn.MTBF > 0 {
			limit = sim.Seconds(rng.ExpFloat64() * scn.MTBF.Seconds())
		}
		err = c.K.RunUntil(limit)
		switch {
		case err == nil:
		case errors.Is(err, fault.ErrRankCrash):
			// An injected crash killed the job; fall through to restart.
		default:
			c.K.Shutdown() // any other failure abandons the attempt with its ranks parked
			return res, err
		}
		res.Checkpoints += c.Coord.Epoch()
		res.CycleAborts += c.Coord.Aborts()
		if err == nil && c.Job.Finished() {
			res.Wall += c.Job.FinishTime()
			res.FinalInst = inst
			return res, nil
		}
		// The job was lost — at the stochastic horizon, or at the injected
		// crash instant. The protocol selects the restart line: the newest
		// verified committed epoch for the blocking protocols, a per-rank
		// (possibly mixed-epoch) recovery line for the uncoordinated one.
		res.Wall += c.K.Now()
		res.Failures++
		line := c.Coord.Protocol().RestartLine(c.Coord.Snapshots())
		res.CorruptSkipped += line.Skipped
		if !line.Empty() {
			appStates = make([][]byte, cfg.N)
			libStates = make([][]byte, cfg.N)
			order := c.Tiers.OrderNames()
			// readback is the serial estimate of the concurrent read-back
			// from the shared tiers (all ranks read at once at the aggregate
			// rate); parMax is the parallel estimate for the node-resident
			// tiers, whose reads ride disjoint fabric links and disks.
			var readback, parMax sim.Time
			for i := 0; i < cfg.N; i++ {
				s := line.Snaps[i]
				if s == nil {
					continue // this rank restarts from scratch
				}
				appStates[i] = s.AppState
				libStates[i] = s.LibState
				src, ok := c.Coord.Snapshots().RecoverySource(s.Epoch, i, order)
				if !ok {
					c.K.Shutdown()
					return res, fmt.Errorf("harness: restart line holds rank %d's epoch %d, which has no copy at any tier", i, s.Epoch)
				}
				level := tier.Level(src)
				if rt := c.Tiers.ReadTime(level, s.Size()); c.Tiers.ParallelRead(level) {
					parMax = max(parMax, rt)
				} else {
					readback += rt
				}
				switch level {
				case tier.RAM:
					res.RecoveredRAM++
				case tier.Local:
					res.RecoveredLocal++
				case tier.Burst:
					res.RecoveredBurst++
				default:
					res.RecoveredCentral++
				}
				c.Tiers.Recovered(res.Wall, i, level, s.Size())
			}
			res.Wall += readback + parMax
		}
		// With no usable line in this attempt's archive, the previous
		// attempt's states (or nil: from scratch) carry over unchanged.
		c.K.Shutdown() // release the dead attempt's process goroutines
	}
	return res, fmt.Errorf("harness: job did not complete within %d attempts", maxAttempts)
}
