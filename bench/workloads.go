package main

import (
	"gbcr/internal/cr/protocol"
	"gbcr/internal/fault"
	"gbcr/internal/harness"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
	"gbcr/internal/workload/hpl"
)

// shareJitter is the storage-share noise (paper §3.1) every benchmark cluster
// runs with. harness.PaperCluster is noise-free, so without it no random draw
// would happen anywhere in a failure-free run and -seed could not reach the
// model; 2 % moves transfer completion order and delays without changing how
// much work a repetition is.
const shareJitter = 0.02

// A workloadSpec is one closed-loop input set: the next simulation starts when
// the previous one returns. Its definition is fixed; only the seed varies.
type workloadSpec struct {
	name string
	why  string
	// warmups is how many set-up rounds a run makes before it starts timing.
	// A round is setup followed by one verified repetition, or setup alone
	// when the workload has one (the baseline then is the warm-up: same code
	// path, no checkpoint).
	warmups int
	// build makes the workload's inputs from the seed. small shrinks every
	// size for the smoke test.
	build func(seed int64, small bool) (*plan, error)
}

// A plan is a workload's inputs for one seed. setup runs once per set-up
// round and its results (baselines) are reused by every repetition; rep is
// one repetition. An op is one simulation.
type plan struct {
	setup []op
	rep   []op
}

// paperCluster is harness.PaperCluster with the run's seed and the
// benchmark's share jitter.
func paperCluster(n int, seed int64) harness.ClusterConfig {
	cfg := harness.PaperCluster(n)
	cfg.Seed = seed
	cfg.Storage.ShareJitter = shareJitter
	return cfg
}

var workloads = []workloadSpec{
	{
		name:    "hpl_sweep",
		why:     "payload-bound: Fig 5 matrix, HPL 8x4 with MB-sized broadcasts, 49 simulations; few events, GBs of buffers",
		warmups: 3,
		build:   buildHPLSweep,
	},
	{
		name:    "micro_sweep",
		why:     "event-bound: Fig 3 matrix, 32-rank CommGroups, 30 simulations of small messages; kernel queue and proc switch",
		warmups: 3,
		build:   buildMicroSweep,
	},
	{
		name:    "scale_256",
		why:     "one 256-rank Group(4) cell of the scalability extension: 8x the procs and queue depth in one simulation",
		warmups: 2,
		build:   buildScale256,
	},
	{
		name:    "fault_tiers",
		why:     "restart-bound: Ring under central and hierarchy storage x none/crash/mtbf; cr cycles, blcr, tier drain, reads, fault",
		warmups: 5,
		build:   buildFaultTiers,
	},
	{
		name:    "logged_uncoord",
		why:     "logging-bound: 64 KiB sends copied into the sender log, then uncoordinated per-rank commit and replay restart",
		warmups: 10,
		build:   buildLoggedUncoord,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// buildHPLSweep is the matrix of figures.Fig5: HPL-timed on the 8x4 grid,
// six checkpoint group sizes x eight issuance times plus one baseline.
// (figures.Generator.Fig5 itself pins Seed 1, so the matrix is rebuilt here
// from the same public constructors.)
func buildHPLSweep(seed int64, small bool) (*plan, error) {
	w := hpl.PaperTimed()
	groups := []int{0, 16, 8, 4, 2, 1}
	first, last, step := 50, 400, 50
	if small {
		w.Steps, w.Step0, w.PanelKB, w.UpdateKB, w.BaseFootprintMB = 12, sim.Second, 256, 64, 70
		groups = []int{0, 4}
		first, last, step = 2, 4, 2
	}
	cfg := paperCluster(w.P*w.Q, seed)
	p := &plan{rep: []op{baselineOp{cfg, w}}}
	for _, gs := range groups {
		for s := first; s <= last; s += step {
			c := cfg
			c.CR.GroupSize = gs
			p.rep = append(p.rep, cellOp{c, w, sim.Time(s) * sim.Second})
		}
	}
	return p, nil
}

// buildMicroSweep is the matrix of figures.Fig3: 32-rank CommGroups, five
// communication group sizes x five checkpoint group sizes plus five
// baselines, checkpoint issued at 10 s.
func buildMicroSweep(seed int64, small bool) (*plan, error) {
	iters, issued := 900, 10*sim.Second
	commSizes := []int{16, 8, 4, 2, 1}
	ckptSizes := []int{0, 16, 8, 4, 2}
	if small {
		iters, issued = 60, sim.Second
		commSizes, ckptSizes = []int{8, 1}, []int{0, 4}
	}
	p := &plan{}
	for _, cg := range commSizes {
		w := workload.CommGroups{
			N: 32, CommGroupSize: cg, Iters: iters,
			Chunk: 100 * sim.Millisecond, FootprintMB: 180,
		}
		if small {
			w.FootprintMB = 18
		}
		cfg := paperCluster(w.N, seed)
		p.rep = append(p.rep, baselineOp{cfg, w})
		for _, gs := range ckptSizes {
			c := cfg
			c.CR.GroupSize = gs
			p.rep = append(p.rep, cellOp{c, w, issued})
		}
	}
	return p, nil
}

// buildScale256 is the 256-rank Group(4) cell of
// figures.ExtensionScalability. The baseline is set-up: it is computed once
// and every repetition measures against it.
func buildScale256(seed int64, small bool) (*plan, error) {
	n := 256
	if small {
		n = 64
	}
	w := workload.CommGroups{
		N: n, CommGroupSize: 4, Iters: 40 + 14*n,
		Chunk: 100 * sim.Millisecond, FootprintMB: 180,
	}
	issued := 10 * sim.Second
	if small {
		w.Iters, w.FootprintMB, issued = 100, 18, sim.Second
	}
	cfg := paperCluster(n, seed)
	cell := cfg
	cell.CR.GroupSize = 4
	return &plan{
		setup: []op{baselineOp{cfg, w}},
		rep:   []op{cellOp{cell, w, issued}},
	}, nil
}

// faultRing is the restartable workload of figures.ExtensionTiers and
// ExtensionProtocols.
func faultRing(small bool) (workload.Ring, sim.Time, string) {
	if small {
		return workload.Ring{N: 8, Iters: 80, Chunk: 50 * sim.Millisecond, FootprintMB: 8}, sim.Second, "crash@2500ms"
	}
	return workload.Ring{N: 32, Iters: 450, Chunk: 50 * sim.Millisecond, FootprintMB: 32}, 8 * sim.Second, "crash@17s"
}

// scenarios parses the fault specs a workload runs each storage mode or
// protocol under. The fault seed is fixed, not derived from -seed: the MTBF
// draw decides how many times the job restarts, and a repetition must be the
// same amount of work on every seed for wall_s to be comparable across seeds.
func scenarios(specs ...string) ([]fault.Scenario, error) {
	out := make([]fault.Scenario, len(specs))
	for i, spec := range specs {
		scn, err := fault.Parse(spec)
		if err != nil {
			return nil, err
		}
		scn.Seed = 11
		out[i] = scn
	}
	return out, nil
}

// buildFaultTiers runs the Ring to completion under periodic checkpoints
// for storage modes {central, hierarchy} x scenarios {none, one crash,
// stochastic MTBF 20 s}, each run restarting until the job finishes.
func buildFaultTiers(seed int64, small bool) (*plan, error) {
	w, interval, crash := faultRing(small)
	mtbf := "mtbf=20s"
	if small {
		mtbf = "mtbf=4s"
	}
	scns, err := scenarios("", crash, mtbf)
	if err != nil {
		return nil, err
	}
	p := &plan{}
	for _, mode := range []tier.Mode{tier.ModeCentral, tier.ModeHierarchy} {
		cfg := paperCluster(w.N, seed)
		cfg.CR.LocalSetup = 100 * sim.Millisecond
		if mode != tier.ModeCentral {
			cfg.Tiers.Mode = mode
		}
		for _, scn := range scns {
			p.rep = append(p.rep, scenarioOp{string(mode), cfg, w, scn, interval})
		}
	}
	return p, nil
}

// buildLoggedUncoord is (a) a CommGroups run with sender-based logging of
// 64 KiB messages and one group checkpoint, then (b) the Ring under the
// uncoordinated protocol (the settings of figures' protocol zoo) with and
// without a crash.
func buildLoggedUncoord(seed int64, small bool) (*plan, error) {
	logged := workload.CommGroups{
		N: 32, CommGroupSize: 8, Iters: 125,
		Chunk: 5 * sim.Millisecond, MsgBytes: 64 << 10, FootprintMB: 180,
	}
	if small {
		logged.Iters, logged.FootprintMB = 20, 18
	}
	lcfg := paperCluster(logged.N, seed)
	lcfg.MPI.LogMessages = true
	lcfg.CR.GroupSize = 8
	issued := 250 * sim.Millisecond
	if small {
		issued = 40 * sim.Millisecond
	}

	w, interval, crash := faultRing(small)
	scns, err := scenarios("", crash)
	if err != nil {
		return nil, err
	}
	ucfg := paperCluster(w.N, seed)
	ucfg.CR.Protocol = protocol.Uncoordinated
	ucfg.CR.LocalSetup = 100 * sim.Millisecond
	ucfg.CR.GroupSize = 0
	ucfg.CR.HelperEnabled = false
	ucfg.MPI.LogMessages = true

	p := &plan{rep: []op{directOp{lcfg, logged, issued}}}
	for _, scn := range scns {
		p.rep = append(p.rep, scenarioOp{"uncoord", ucfg, w, scn, interval})
	}
	return p, nil
}
