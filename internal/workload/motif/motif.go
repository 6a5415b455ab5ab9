// Package motif provides the MotifMiner workload from the paper's
// evaluation (Section 6.3): a data-mining kernel that "follows an iterative
// pattern, and MPI_Allgather is used to exchange data after each iteration".
//
// Two forms:
//
//   - Mine: a real, restartable level-wise parallel frequent-substructure
//     miner over a synthetic labeled-graph dataset (molecules), validating
//     the MPI layer with genuine computation: graphs are distributed across
//     ranks, local supports are combined with an allreduce each level, and
//     the frequent set is extended level by level. Each level starts with a
//     collective checkpoint poll that captures the whole mining position, so
//     a killed run resumes mid-mining and finds the same pattern set.
//   - Timed: the same communication skeleton with paper-scale compute and
//     footprint, used to regenerate Figure 7.
package motif

import (
	"fmt"
	"sort"

	"gbcr/internal/blcr"
	"gbcr/internal/mpi"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// Mine configures a real mining run.
type Mine struct {
	Graphs   int // dataset size (distributed across ranks)
	Vertices int // vertices per graph
	Degree   int // average degree
	Labels   int // vertex alphabet size
	MinSup   int // minimum support (number of graphs)
	MaxLen   int // maximum pattern length
	Seed     int64
	// LevelCompute models the per-level computation beyond the actual DFS
	// counting (the paper calls MotifMiner "very computation intensive").
	LevelCompute sim.Time
}

// Name implements the workload interface.
func (m Mine) Name() string {
	return fmt.Sprintf("motif-mine(g=%d,v=%d)", m.Graphs, m.Vertices)
}

// graph is one labeled molecule.
type graph struct {
	labels []int
	adj    [][]int
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// genGraph deterministically generates graph g of the dataset.
func (m Mine) genGraph(g int) graph {
	state := uint64(m.Seed)*0x9e3779b97f4a7c15 + uint64(g+1)
	gr := graph{labels: make([]int, m.Vertices), adj: make([][]int, m.Vertices)}
	for v := 0; v < m.Vertices; v++ {
		gr.labels[v] = int(splitmix(&state) % uint64(m.Labels))
	}
	edges := m.Vertices * m.Degree / 2
	for e := 0; e < edges; e++ {
		a := int(splitmix(&state) % uint64(m.Vertices))
		b := int(splitmix(&state) % uint64(m.Vertices))
		if a == b {
			continue
		}
		gr.adj[a] = append(gr.adj[a], b)
		gr.adj[b] = append(gr.adj[b], a)
	}
	return gr
}

// block generates rank r's share of the dataset in an n-rank run.
func (m Mine) block(r, n int) []graph {
	lo := r * m.Graphs / n
	hi := (r + 1) * m.Graphs / n
	graphs := make([]graph, 0, hi-lo)
	for g := lo; g < hi; g++ {
		graphs = append(graphs, m.genGraph(g))
	}
	return graphs
}

// contains reports whether the graph has a simple path whose vertex labels
// spell pattern.
func (gr graph) contains(pattern []int) bool {
	visited := make([]bool, len(gr.labels))
	var dfs func(v, idx int) bool
	dfs = func(v, idx int) bool {
		if gr.labels[v] != pattern[idx] {
			return false
		}
		if idx == len(pattern)-1 {
			return true
		}
		visited[v] = true
		for _, w := range gr.adj[v] {
			if !visited[w] && dfs(w, idx+1) {
				visited[v] = false
				return true
			}
		}
		visited[v] = false
		return false
	}
	for v := range gr.labels {
		if dfs(v, 0) {
			return true
		}
	}
	return false
}

// supports counts, for each candidate, the graphs that contain it.
func supports(graphs []graph, cands [][]int) []float64 {
	out := make([]float64, len(cands))
	for ci, c := range cands {
		for _, gr := range graphs {
			if gr.contains(c) {
				out[ci]++
			}
		}
	}
	return out
}

// patKey renders a pattern as a map key.
func patKey(p []int) string {
	b := make([]byte, 0, len(p)*3)
	for _, l := range p {
		b = append(b, byte('a'+l%26), byte('0'+l/26), '.')
	}
	return string(b)
}

// mineState is one rank's mining position: the level about to be counted
// and its candidates, plus what earlier levels found. It is the snapshot.
type mineState struct {
	Level      int
	FreqLabels []int
	Frequent   map[string]int
	Cands      [][]int
}

var mineCodec blcr.Codec[mineState]

// start is the position before level 1: every single label is a candidate.
func (m Mine) start() *mineState {
	st := &mineState{Level: 1, Frequent: make(map[string]int)}
	for l := 0; l < m.Labels; l++ {
		st.Cands = append(st.Cands, []int{l})
	}
	return st
}

// done reports whether the level-wise loop has finished.
func (m Mine) done(st *mineState) bool { return st.Level > m.MaxLen || len(st.Cands) == 0 }

// advance records the level's frequent candidates, given their global
// supports, and moves st to the next level's candidates.
func (m Mine) advance(st *mineState, sup []float64) {
	var next [][]int
	for ci, c := range st.Cands {
		if int(sup[ci]) < m.MinSup {
			continue
		}
		st.Frequent[patKey(c)] = int(sup[ci])
		if st.Level == 1 {
			st.FreqLabels = append(st.FreqLabels, c[0])
		}
		if st.Level > 1 && st.Level < m.MaxLen {
			for _, l := range st.FreqLabels {
				next = append(next, append(append([]int{}, c...), l))
			}
		}
	}
	if st.Level == 1 && st.Level < m.MaxLen {
		for _, a := range st.FreqLabels {
			for _, b := range st.FreqLabels {
				next = append(next, []int{a, b})
			}
		}
	}
	st.Cands = next
	st.Level++
}

// MineSerial computes the frequent-pattern set on a single process — the
// reference for the parallel run.
func (m Mine) MineSerial() map[string]int {
	graphs := m.block(0, 1)
	st := m.start()
	for !m.done(st) {
		m.advance(st, supports(graphs, st.Cands))
	}
	return st.Frequent
}

// MineInstance is one parallel mining run.
type MineInstance struct {
	workload.Resumable[mineState]
	m Mine
	// Frequent is the mined pattern set with supports; identical on every
	// rank after the run (this copy is rank 0's).
	Frequent map[string]int
	bytes    []int64
}

// mineLoop runs a level an iteration: the poll's allreduce and the support
// allreduce take two collective tags each.
var mineLoop = workload.Loop[mineState, *MineInstance]{Name: "motif", Codec: &mineCodec, Tags: 4,
	Fresh: func(inst *MineInstance, _ int) *mineState { return inst.m.start() },
	Done:  func(st *mineState) int { return st.Level - 1 }, Run: (*MineInstance).run}

// Launch implements the workload interface.
func (m Mine) Launch(j *mpi.Job) (workload.Instance, error) { return m.LaunchFrom(j, nil) }

// LaunchFrom implements workload.Restartable: graphs are distributed
// block-wise across ranks; each level's supports are combined with an
// allreduce. A rank with a captured state resumes from it.
func (m Mine) LaunchFrom(j *mpi.Job, appStates [][]byte) (workload.RestartableInstance, error) {
	n := j.Size()
	return mineLoop.Launch(j, appStates, n, 0, &MineInstance{m: m, bytes: make([]int64, n)})
}

// run is one rank's level-wise loop.
func (inst *MineInstance) run(e *mpi.Env, st *mineState, p workload.SafePoint) {
	m := inst.m
	r := e.Rank()
	if st.Frequent == nil {
		st.Frequent = make(map[string]int) // gob omits an empty map
	}
	// The dataset block is not part of the snapshot: input data is
	// re-readable after restart.
	graphs := m.block(r, e.Size())
	inst.bytes[r] = int64(len(graphs)) * int64(m.Vertices) * 64
	for !m.done(st) {
		p.Poll(e)
		if m.LevelCompute > 0 {
			e.Compute(m.LevelCompute)
		}
		m.advance(st, e.AllreduceF64(p.World, supports(graphs, st.Cands), mpi.OpSum))
	}
	if r == 0 {
		inst.Frequent = st.Frequent
	}
}

// Footprint implements the workload Instance interface: a rank's image
// holds its block of the dataset.
func (inst *MineInstance) Footprint(rank int) int64 { return inst.bytes[rank] }

// SortedPatterns returns the frequent patterns in deterministic order.
func (inst *MineInstance) SortedPatterns() []string {
	out := make([]string, 0, len(inst.Frequent))
	//lint:allow-simdeterminism keys are sorted below before the slice is returned
	for k := range inst.Frequent {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Timed reproduces the Figure 7 run: 32 processes, compute-heavy iterations
// separated by a global Allgather. "Although it only does global
// communication, each process still has a relatively large chunk of
// computation before they synchronize" — which is why group-based
// checkpointing still helps.
type Timed struct {
	N           int
	Chunks      []sim.Time // computation per iteration (mining levels vary widely)
	ExchangeKB  int        // per-rank allgather payload
	FootprintMB int64
}

// PaperTimed returns the Figure 7 configuration: a ~150 s run with four
// issuance points at 30/60/90/120 s and checkpoint images around 400 MB.
func PaperTimed() Timed {
	return Timed{
		N:           32,
		Chunks:      []sim.Time{25 * sim.Second, 70 * sim.Second, 35 * sim.Second, 30 * sim.Second},
		ExchangeKB:  256,
		FootprintMB: 350,
	}
}

// Name implements the workload interface.
func (w Timed) Name() string { return fmt.Sprintf("motif(n=%d,iters=%d)", w.N, len(w.Chunks)) }

// Launch implements the workload interface.
func (w Timed) Launch(j *mpi.Job) (workload.Instance, error) {
	if j.Size() != w.N {
		return nil, fmt.Errorf("motif: job size %d does not match N=%d", j.Size(), w.N)
	}
	if w.ExchangeKB < 0 {
		return nil, fmt.Errorf("motif: negative payload size (ExchangeKB=%d)", w.ExchangeKB)
	}
	exchange := int64(w.ExchangeKB) << 10
	j.LaunchAll(func(e *mpi.Env) {
		world := e.World()
		for _, chunk := range w.Chunks {
			e.Compute(chunk)
			e.AllgatherSize(world, exchange)
		}
	})
	return workload.ConstFootprint(w.FootprintMB << 20), nil
}
