package hpl

import (
	"fmt"

	"gbcr/internal/mpi"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// Timed reproduces the communication and timing structure of the paper's
// HPL runs (Section 6.2) without the arithmetic: an 8×4 process grid where
// each panel step broadcasts the panel along the owner's grid row, exchanges
// update data down the columns, and then computes the trailing update, whose
// cost shrinks quadratically as the factorization proceeds.
type Timed struct {
	P, Q  int // process grid (paper: 8×4)
	Steps int // panel steps

	// Step0 is the trailing-update compute time of the first step; step k
	// costs Step0 * ((Steps-k)/Steps)^2.
	Step0 sim.Time

	// PanelKB and UpdateKB are the broadcast payload sizes along rows and
	// columns respectively.
	PanelKB, UpdateKB int

	// ColEvery is how many panel steps pass between full column-wise
	// exchanges. With the paper's "larger block size" the row-wise panel
	// broadcast dominates ("the communication group size is effectively
	// four"); the column-wise row-swap synchronization is the periodic
	// coupling across grid rows.
	ColEvery int

	// BaseFootprintMB is the full per-process image size; the effective
	// footprint grows from roughly 45% of it toward 100% as the run touches
	// more memory (the paper observes that "the memory footprint is not
	// constant during the execution time").
	BaseFootprintMB int64
}

// PaperTimed returns the configuration used for the Figure 5/6 benches: an
// 8×4 grid whose run lasts about 450 s, with checkpoint images on the order
// of 700 MB per process (filling most of the testbed's 2 GB nodes).
func PaperTimed() Timed {
	return Timed{
		P: 8, Q: 4,
		Steps:           120,
		Step0:           11 * sim.Second,
		PanelKB:         2048,
		UpdateKB:        512,
		ColEvery:        16,
		BaseFootprintMB: 700,
	}
}

// TimedInstance is one run of the timed model.
type TimedInstance struct {
	cfg  Timed
	step []int // per-rank current panel step, read by Footprint
}

// gridComms makes the rank's row and column communicators of the p×q grid,
// in the same order on every rank.
func gridComms(e *mpi.Env, p, q int) (row, col *mpi.Comm) {
	me := e.Rank()
	rowRanks, colRanks := make([]int, q), make([]int, p)
	for c := range rowRanks {
		rowRanks[c] = me/q*q + c
	}
	for r := range colRanks {
		colRanks[r] = r*q + me%q
	}
	return e.NewComm(rowRanks), e.NewComm(colRanks)
}

// Name implements the workload interface.
func (w Timed) Name() string {
	return fmt.Sprintf("hpl(%dx%d,steps=%d)", w.P, w.Q, w.Steps)
}

// Launch implements the workload interface.
func (w Timed) Launch(j *mpi.Job) (workload.Instance, error) {
	n := w.P * w.Q
	if j.Size() != n {
		return nil, fmt.Errorf("hpl: job size %d does not match %dx%d grid", j.Size(), w.P, w.Q)
	}
	if w.PanelKB < 0 || w.UpdateKB < 0 {
		return nil, fmt.Errorf("hpl: negative payload size (PanelKB=%d, UpdateKB=%d)", w.PanelKB, w.UpdateKB)
	}
	inst := &TimedInstance{cfg: w, step: make([]int, n)}
	for r := 0; r < n; r++ {
		j.Launch(r, func(e *mpi.Env) { inst.run(e) })
	}
	return inst, nil
}

func (inst *TimedInstance) run(e *mpi.Env) {
	w := inst.cfg
	me := e.Rank()
	rowComm, colComm := gridComms(e, w.P, w.Q)
	// The model needs the broadcasts' cost, not their content: lengths only.
	panel, update := int64(w.PanelKB)<<10, int64(w.UpdateKB)<<10
	colEvery := w.ColEvery
	if colEvery <= 0 {
		colEvery = 1
	}
	for k := 0; k < w.Steps; k++ {
		inst.step[me] = k
		// Panel broadcast along the grid row: the frequent traffic, the
		// "communication group of four" the paper refers to.
		e.BcastSize(rowComm, k%w.Q, panel)
		// Periodic column-wise row-swap exchange coupling the grid rows.
		if k%colEvery == colEvery-1 {
			e.BcastSize(colComm, k%w.P, update)
		}
		// Trailing-submatrix update: quadratic decay.
		rem := float64(w.Steps-k) / float64(w.Steps)
		e.Compute(sim.Time(float64(w.Step0) * rem * rem))
	}
	inst.step[me] = w.Steps
}

// Footprint implements the workload Instance interface: the touched-memory
// image grows from ~45% of the base toward 100% over the run.
func (inst *TimedInstance) Footprint(rank int) int64 {
	progress := float64(inst.step[rank]) / float64(inst.cfg.Steps)
	frac := 0.45 + float64(0.55*progress) // float64() rounds: no fused multiply-add
	return int64(float64(inst.cfg.BaseFootprintMB<<20) * frac)
}
