// Package motif provides the MotifMiner workload from the paper's
// evaluation (Section 6.3): a data-mining kernel that "follows an iterative
// pattern, and MPI_Allgather is used to exchange data after each iteration".
//
// Two forms:
//
//   - Mine: a real level-wise parallel frequent-substructure miner over a
//     synthetic labeled-graph dataset (molecules), validating the MPI layer
//     with genuine computation: graphs are distributed across ranks, local
//     supports are combined with an allreduce each level, and the frequent
//     set is extended level by level.
//   - Timed: the same communication skeleton with paper-scale compute and
//     footprint, used to regenerate Figure 7.
package motif

import (
	"fmt"
	"sort"

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

// patKey renders a pattern as a map key.
func patKey(p []int) string {
	b := make([]byte, 0, len(p)*3)
	for _, l := range p {
		b = append(b, byte('a'+l%26), byte('0'+l/26), '.')
	}
	return string(b)
}

// MineSerial computes the frequent-pattern set on a single process — the
// reference for the parallel run.
func (m Mine) MineSerial() map[string]int {
	graphs := make([]graph, m.Graphs)
	for g := range graphs {
		graphs[g] = m.genGraph(g)
	}
	count := func(cands [][]int) []int {
		out := make([]int, len(cands))
		for ci, c := range cands {
			for _, gr := range graphs {
				if gr.contains(c) {
					out[ci]++
				}
			}
		}
		return out
	}
	return m.levelwise(count)
}

// levelwise runs the level-wise candidate generation loop with the given
// counting oracle.
func (m Mine) levelwise(count func([][]int) []int) map[string]int {
	frequent := make(map[string]int)
	// Level 1: single labels.
	var cands [][]int
	for l := 0; l < m.Labels; l++ {
		cands = append(cands, []int{l})
	}
	var freqLabels []int
	for level := 1; level <= m.MaxLen && len(cands) > 0; level++ {
		counts := count(cands)
		var next [][]int
		for ci, c := range cands {
			if counts[ci] < m.MinSup {
				continue
			}
			frequent[patKey(c)] = counts[ci]
			if level == 1 {
				freqLabels = append(freqLabels, c[0])
			}
			if level < m.MaxLen {
				for _, l := range freqLabels {
					ext := append(append([]int{}, c...), l)
					next = append(next, ext)
				}
			}
		}
		if level == 1 {
			// Regenerate level-2 candidates now that freqLabels is known.
			next = next[:0]
			for _, a := range freqLabels {
				for _, b := range freqLabels {
					next = append(next, []int{a, b})
				}
			}
		}
		cands = next
	}
	return frequent
}

// MineInstance is one parallel mining run.
type MineInstance struct {
	cfg Mine
	// Frequent is the mined pattern set with supports; identical on every
	// rank after the run (this copy is rank 0's).
	Frequent map[string]int
	bytes    []int64
}

// Launch implements the workload interface: graphs are distributed
// block-wise across ranks; each level's supports are combined with an
// allreduce.
func (m Mine) Launch(j *mpi.Job) (workload.Instance, error) {
	inst := &MineInstance{cfg: m, bytes: make([]int64, j.Size())}
	n := j.Size()
	for r := 0; r < n; r++ {
		r := r
		j.Launch(r, func(e *mpi.Env) {
			world := e.World()
			// My block of the dataset.
			lo := r * m.Graphs / n
			hi := (r + 1) * m.Graphs / n
			graphs := make([]graph, 0, hi-lo)
			for g := lo; g < hi; g++ {
				graphs = append(graphs, m.genGraph(g))
			}
			inst.bytes[r] = int64(hi-lo) * int64(m.Vertices) * 64
			count := func(cands [][]int) []int {
				local := make([]float64, len(cands))
				for ci, c := range cands {
					for _, gr := range graphs {
						if gr.contains(c) {
							local[ci]++
						}
					}
				}
				global := e.AllreduceF64(world, local, mpi.OpSum)
				out := make([]int, len(cands))
				for i, v := range global {
					out[i] = int(v)
				}
				return out
			}
			freq := m.levelwise(count)
			if r == 0 {
				inst.Frequent = freq
			}
		})
	}
	return inst, nil
}

// Footprint implements the workload Instance interface.
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
	for r := 0; r < w.N; r++ {
		j.Launch(r, func(e *mpi.Env) {
			world := e.World()
			for _, chunk := range w.Chunks {
				e.Compute(chunk)
				e.AllgatherSize(world, exchange)
			}
		})
	}
	return TimedInstance{fp: w.FootprintMB << 20}, nil
}

// TimedInstance is one run of the timed model.
type TimedInstance struct{ fp int64 }

// Footprint implements the workload Instance interface.
func (t TimedInstance) Footprint(rank int) int64 { return t.fp }
