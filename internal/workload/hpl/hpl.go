// Package hpl provides the High-Performance-Linpack workload used in the
// paper's evaluation (Section 6.2), in two forms:
//
//   - Solve: a real distributed right-looking blocked LU factorization on a
//     P×Q process grid with 2D block-cyclic distribution. It computes actual
//     numbers and is used to validate the MPI layer end to end.
//   - Timed: the same communication structure driven by paper-scale compute
//     times and memory footprints, used to regenerate Figures 5 and 6.
//
// The paper runs HPL on an 8×4 grid, noting that processes "mostly
// communicate in the same row or column" and that "the communication group
// size is effectively four" (the grid row).
package hpl

import (
	"fmt"
	"math"

	"gbcr/internal/mpi"
	"gbcr/internal/workload"
)

// Solve configures a real LU factorization.
type Solve struct {
	N    int   // global matrix dimension (multiple of NB)
	NB   int   // block size
	P, Q int   // process grid (P*Q ranks)
	Seed int64 // matrix generator seed
}

// SolveInstance is one factorization run.
type SolveInstance struct {
	cfg Solve
	// MaxResidual is max |(L·U − A)_ij| / N over the whole matrix,
	// assembled on rank 0 after the run.
	MaxResidual float64
	localBytes  []int64
}

// Name implements the workload interface.
func (s Solve) Name() string {
	return fmt.Sprintf("hpl-solve(n=%d,nb=%d,%dx%d)", s.N, s.NB, s.P, s.Q)
}

// elem generates matrix entry (i,j) deterministically; the diagonal is
// dominant so factorization without pivoting is stable.
func (s Solve) elem(i, j int) float64 {
	h := uint64(i+1)*2654435761 ^ uint64(j+1)*0x9e3779b97f4a7c15 ^ uint64(s.Seed)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	v := float64(h%1_000_003) / 1_000_003.0 // [0,1)
	if i == j {
		v += float64(s.N)
	}
	return v
}

// Launch implements the workload interface. After the job runs, MaxResidual
// holds the verification result (assert to *SolveInstance to read it).
func (s Solve) Launch(j *mpi.Job) (workload.Instance, error) {
	if s.N%s.NB != 0 {
		return nil, fmt.Errorf("hpl: N=%d must be a multiple of NB=%d", s.N, s.NB)
	}
	if j.Size() != s.P*s.Q {
		return nil, fmt.Errorf("hpl: job size %d does not match %dx%d grid", j.Size(), s.P, s.Q)
	}
	inst := &SolveInstance{cfg: s, localBytes: make([]int64, s.P*s.Q)}
	j.LaunchAll(inst.run)
	return inst, nil
}

// Footprint implements the workload Instance interface: the rank's local
// matrix storage.
func (inst *SolveInstance) Footprint(rank int) int64 { return inst.localBytes[rank] }

type blockKey struct{ i, j int }

// decode is mpi.BytesToF64 for a rank body, which has no caller to return an
// error to: a malformed length fails the run and reports false.
func decode(e *mpi.Env, b []byte) ([]float64, bool) {
	v, err := mpi.BytesToF64(b)
	if err != nil {
		e.Proc().K().Fail(err)
		return nil, false
	}
	return v, true
}

// run is one rank's factorization.
func (inst *SolveInstance) run(e *mpi.Env) {
	s := inst.cfg
	nb, nblk := s.NB, s.N/s.NB
	me := e.Rank()
	myr, myc := me/s.Q, me%s.Q
	rowComm, colComm := gridComms(e, s.P, s.Q)

	// Generate the local blocks of the 2D block-cyclic distribution.
	local := make(map[blockKey][]float64)
	for bi := 0; bi < nblk; bi++ {
		for bj := 0; bj < nblk; bj++ {
			if bi%s.P != myr || bj%s.Q != myc {
				continue
			}
			blk := make([]float64, nb*nb)
			for i := 0; i < nb; i++ {
				for j := 0; j < nb; j++ {
					blk[i*nb+j] = s.elem(bi*nb+i, bj*nb+j)
				}
			}
			local[blockKey{bi, bj}] = blk
		}
	}
	inst.localBytes[me] = int64(len(local) * nb * nb * 8)

	// Right-looking factorization over block steps.
	for k := 0; k < nblk; k++ {
		pr, pc := k%s.P, k%s.Q

		// 1. The diagonal owner factorizes A_kk in place (combined LU).
		var diag []float64
		var ok bool
		if myr == pr && myc == pc {
			diag = local[blockKey{k, k}]
			luFactor(diag, nb)
		}
		// 2. Broadcast the factored diagonal down the owner process column
		// so sub-diagonal blocks can form L_ik = A_ik U_kk^{-1}.
		if myc == pc {
			if diag, ok = decode(e, e.Bcast(colComm, pr, mpi.F64ToBytes(diag))); !ok {
				return
			}
			for bi := k + 1; bi < nblk; bi++ {
				if blk, ok := local[blockKey{bi, k}]; ok {
					solveXU(blk, diag, nb)
				}
			}
		}
		// 3. Broadcast it along the owner process row so right-of-diagonal
		// blocks can form U_kj = L_kk^{-1} A_kj.
		if myr == pr {
			if diag, ok = decode(e, e.Bcast(rowComm, pc, mpi.F64ToBytes(diag))); !ok {
				return
			}
			for bj := k + 1; bj < nblk; bj++ {
				if blk, ok := local[blockKey{k, bj}]; ok {
					solveLX(blk, diag, nb)
				}
			}
		}
		// 4. Broadcast the panel: L_ik along process rows, U_kj down
		// process columns.
		lblocks := make(map[int][]float64)
		for bi := k + 1; bi < nblk; bi++ {
			if bi%s.P != myr {
				continue
			}
			var buf []byte
			if myc == pc {
				buf = mpi.F64ToBytes(local[blockKey{bi, k}])
			}
			if lblocks[bi], ok = decode(e, e.Bcast(rowComm, pc, buf)); !ok {
				return
			}
		}
		ublocks := make(map[int][]float64)
		for bj := k + 1; bj < nblk; bj++ {
			if bj%s.Q != myc {
				continue
			}
			var buf []byte
			if myr == pr {
				buf = mpi.F64ToBytes(local[blockKey{k, bj}])
			}
			if ublocks[bj], ok = decode(e, e.Bcast(colComm, pr, buf)); !ok {
				return
			}
		}
		// 5. Trailing update: A_ij -= L_ik · U_kj.
		//lint:allow-simdeterminism each block updates independently; any order gives the same matrix
		for key, blk := range local {
			if key.i > k && key.j > k {
				gemmSub(blk, lblocks[key.i], ublocks[key.j], nb)
			}
		}
	}

	inst.verify(e, local)
}

// verify gathers every factored block on rank 0 and checks L·U against the
// regenerated input matrix.
func (inst *SolveInstance) verify(e *mpi.Env, local map[blockKey][]float64) {
	s := inst.cfg
	nb, nblk := s.NB, s.N/s.NB
	world := e.World()
	if e.Rank() != 0 {
		for bi := 0; bi < nblk; bi++ {
			for bj := 0; bj < nblk; bj++ {
				if blk, ok := local[blockKey{bi, bj}]; ok {
					e.Send(world, 0, 1000+bi*nblk+bj, mpi.F64ToBytes(blk))
				}
			}
		}
		return
	}
	full := make([][]float64, s.N)
	for i := range full {
		full[i] = make([]float64, s.N)
	}
	place := func(bi, bj int, blk []float64) {
		for i := 0; i < nb; i++ {
			copy(full[bi*nb+i][bj*nb:bj*nb+nb], blk[i*nb:(i+1)*nb])
		}
	}
	for bi := 0; bi < nblk; bi++ {
		for bj := 0; bj < nblk; bj++ {
			owner := (bi%s.P)*s.Q + bj%s.Q
			if owner == 0 {
				place(bi, bj, local[blockKey{bi, bj}])
			} else {
				data, _ := e.Recv(world, owner, 1000+bi*nblk+bj)
				blk, ok := decode(e, data)
				if !ok {
					return
				}
				place(bi, bj, blk)
			}
		}
	}
	// full now holds combined L\U; check max |(L·U - A)_ij| / N.
	maxErr := 0.0
	for i := 0; i < s.N; i++ {
		for j := 0; j < s.N; j++ {
			var sum float64
			for k := 0; k <= min(i, j); k++ {
				l := full[i][k]
				if k == i {
					l = 1 // unit diagonal of L
				}
				sum += l * full[k][j]
			}
			if d := math.Abs(sum-s.elem(i, j)) / float64(s.N); d > maxErr {
				maxErr = d
			}
		}
	}
	inst.MaxResidual = maxErr
}

// luFactor computes the in-place unpivoted LU of an nb×nb block.
func luFactor(a []float64, nb int) {
	for i := 0; i < nb; i++ {
		piv := a[i*nb+i]
		for r := i + 1; r < nb; r++ {
			l := a[r*nb+i] / piv
			a[r*nb+i] = l
			for c := i + 1; c < nb; c++ {
				a[r*nb+c] -= l * a[i*nb+c]
			}
		}
	}
}

// solveXU solves X·U = A in place, where U is the upper triangle of lu (the
// sub-diagonal panel update L_ik = A_ik U_kk^{-1}).
func solveXU(a, lu []float64, nb int) {
	for r := 0; r < nb; r++ {
		for c := 0; c < nb; c++ {
			sum := a[r*nb+c]
			for k := 0; k < c; k++ {
				sum -= a[r*nb+k] * lu[k*nb+c]
			}
			a[r*nb+c] = sum / lu[c*nb+c]
		}
	}
}

// solveLX solves L·X = A in place, where L is the unit-lower triangle of lu
// (the right-of-diagonal panel update U_kj = L_kk^{-1} A_kj).
func solveLX(a, lu []float64, nb int) {
	for c := 0; c < nb; c++ {
		for r := 0; r < nb; r++ {
			sum := a[r*nb+c]
			for k := 0; k < r; k++ {
				sum -= lu[r*nb+k] * a[k*nb+c]
			}
			a[r*nb+c] = sum
		}
	}
}

// gemmSub computes A -= L·U for nb×nb blocks.
func gemmSub(a, l, u []float64, nb int) {
	for i := 0; i < nb; i++ {
		for k := 0; k < nb; k++ {
			lik := l[i*nb+k]
			if lik == 0 {
				continue
			}
			for j := 0; j < nb; j++ {
				a[i*nb+j] -= lik * u[k*nb+j]
			}
		}
	}
}
