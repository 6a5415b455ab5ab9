package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"gbcr/internal/obs"
)

// defaultSeed is the seed whose digests are pinned in testdata/digests.json.
const defaultSeed = 1

// minReps is the fewest timed repetitions a run takes the best of.
const minReps = 3

// runConfig is one benchmark run: one workload, one seed, one process.
type runConfig struct {
	w       workloadSpec
	seed    int64
	seconds float64 // timed repetitions continue until this much time is measured
	small   bool    // shrunken sizes, for the smoke test
	warmups int     // set-up rounds; < 1 selects the workload's own count
	reps    int     // exact number of timed repetitions; 0 selects by seconds
	pins    pins    // reference digests for defaultSeed
	update  bool    // collect digests for pinning: no reference, all must agree
	// ladderDiv divides the ladder's operation counts in a traced run; < 1
	// selects quickLadder.
	ladderDiv int
	start     time.Time
}

// runResult is what one run measured.
type runResult struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Warmups   int         `json:"warmups"`
	Reps      int         `json:"reps"`
	Attempted int         `json:"ops_attempted"`
	Failed    int         `json:"ops_failed"`
	Errors    []string    `json:"errors,omitempty"`
	Digest    pin         `json:"digest"`
	SetupS    []float64   `json:"setup_round_s"`
	WallS     []float64   `json:"rep_wall_s"`
	OpS       [][]float64 `json:"rep_op_s"`
	Metrics   []metric    `json:"metrics"`
}

// digester hashes a repetition's result lines and counts its operations.
type digester struct {
	h         hash.Hash
	opS       []float64 // wall time of each op, in order
	attempted int
	failed    int
	errs      []string
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// runOps runs every op in order. An op that returns an error fails; the
// others still run, so one bad cell costs one operation, not the repetition.
func (d *digester) runOps(x *repState, ops []op) {
	for i, o := range ops {
		d.attempted++
		t := time.Now()
		line, err := o.run(x)
		d.opS = append(d.opS, time.Since(t).Seconds())
		if err != nil {
			d.failed++
			d.errs = append(d.errs, fmt.Sprintf("op %d (%T): %v", i, o, err))
			continue
		}
		fmt.Fprintln(d.h, line)
	}
}

// session is one process's run of one workload: the digests every set-up
// round and repetition must reproduce (the pins at the default seed, otherwise
// whatever this run's first round and repetition produced), the inputs the
// last set-up round built, and the state (baselines) that round left behind.
type session struct {
	cfg     runConfig
	res     *runResult
	ref     pin
	pinned  bool
	startup float64 // process start to the first set-up round, seconds
	plan    *plan
	x       *repState
}

// check accounts one digested unit (a set-up or a repetition). A digest
// mismatch fails every operation of the unit.
func (s *session) check(kind string, d *digester, ref *string) {
	s.res.Attempted += d.attempted
	s.res.Errors = append(s.res.Errors, d.errs...)
	got := d.sum()
	if *ref == "" && !s.pinned {
		*ref = got
	}
	if d.failed == 0 && got != *ref {
		d.failed = d.attempted
		s.res.Errors = append(s.res.Errors, fmt.Sprintf("%s digest %s, want %s", kind, got, *ref))
	}
	s.res.Failed += d.failed
	s.res.Digest = s.ref
}

func newSession(cfg runConfig) (*session, error) {
	s := &session{cfg: cfg, res: &runResult{Workload: cfg.w.name, Seed: cfg.seed}}
	if cfg.seed == defaultSeed && !cfg.update {
		p, ok := cfg.pins[pinKey(cfg.w.name, cfg.small)]
		if !ok {
			return nil, fmt.Errorf("no pinned digest for %s; run with -update-digests", cfg.w.name)
		}
		s.ref, s.pinned = p, true
	}
	if !cfg.start.IsZero() {
		s.startup = time.Since(cfg.start).Seconds()
	}
	return s, nil
}

// setupRound is everything the process does before it can time a repetition:
// build the inputs from the seed, run the set-up ops (the baseline a later
// cell measures against), and, for a workload without set-up ops, one
// verified warm-up repetition. Its duration, plus the process's own start-up,
// is one sample of setup_s.
func (s *session) setupRound() error {
	runtime.GC() // like a repetition, a round starts from a collected heap
	t := time.Now()
	p, err := s.cfg.w.build(s.cfg.seed, s.cfg.small)
	if err != nil {
		return err
	}
	s.plan, s.x = p, newState()
	d := newDigester()
	d.runOps(s.x, p.setup)
	s.check("set-up", d, &s.ref.Setup)
	if len(p.setup) == 0 {
		d = newDigester()
		d.runOps(s.x.forRep(nil, nil), p.rep)
		s.check("warm-up", d, &s.ref.Rep)
	}
	s.res.SetupS = append(s.res.SetupS, s.startup+time.Since(t).Seconds())
	s.res.Warmups++
	return nil
}

// repetition runs and verifies one repetition, after a collection so every
// repetition starts from the same heap, and returns its wall time and state.
func (s *session) repetition(tr *tracer, bus *obs.Bus) (float64, *repState) {
	runtime.GC()
	x := s.x.forRep(tr, bus)
	d := newDigester()
	t := time.Now()
	d.runOps(x, s.plan.rep)
	wall := time.Since(t).Seconds()
	s.check("repetition", d, &s.ref.Rep)
	s.res.OpS = append(s.res.OpS, d.opS)
	return wall, x
}

// measure is an untraced run: set-up rounds, then timed repetitions until
// cfg.seconds of repetitions are measured.
func measure(cfg runConfig) (*runResult, error) {
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	// At least one round always runs: it builds the inputs and the set-up's
	// baselines the repetitions measure against.
	warmups := cfg.warmups
	if warmups < 1 {
		warmups = cfg.w.warmups
	}
	for i := 0; i < warmups; i++ {
		if err := s.setupRound(); err != nil {
			return nil, err
		}
	}
	res := s.res

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var measured float64
	for (cfg.reps == 0 && (measured < cfg.seconds || len(res.WallS) < minReps)) || len(res.WallS) < cfg.reps {
		wall, _ := s.repetition(nil, nil)
		res.WallS = append(res.WallS, wall)
		measured += wall
	}
	runtime.ReadMemStats(&after)
	res.Reps = len(res.WallS)

	r := float64(res.Reps)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Metrics = []metric{
		{"wall_s", minOf(res.WallS), "s"},
		{"alloc_mb", float64(after.TotalAlloc-before.TotalAlloc) / r / (1 << 20), "MB"},
		{"allocs_k", float64(after.Mallocs-before.Mallocs) / r / 1e3, "k"},
		{"peak_rss_mb", rss, "MB"},
		{"setup_s", median(res.SetupS), "s"},
	}
	return res, nil
}

// A metric is one named value with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minOf is the smallest value of a non-empty slice.
func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// median is the middle cut point of quartiles.
func median(v []float64) float64 { return quartiles(v)[1] }
