package workload

import (
	"fmt"

	"gbcr/internal/blcr"
	"gbcr/internal/mpi"
)

// Loop is the restart driver of an iterative workload whose instance I runs
// a loop over a per-rank state S. The funcs are method expressions or plain
// functions, so a launch makes no closure beyond each rank's body.
type Loop[S any, I instance[S]] struct {
	Name  string // names the workload in errors
	Codec *blcr.Codec[S]
	Tags  int                       // collective tags an iteration takes on the world communicator, its poll's two included
	Fresh func(inst I, rank int) *S // a rank's state before its first iteration; nil: the zero S
	Done  func(st *S) int           // iterations st has finished
	Run   func(inst I, e *mpi.Env, st *S, p SafePoint)
}

// instance is an instance a Loop launches: it embeds Resumable.
type instance[S any] interface {
	RestartableInstance
	resumable() *Resumable[S]
}

// Resumable is what the driver keeps of an instance: every rank's state,
// captured through the loop's codec, and the footprint of every rank.
type Resumable[S any] struct {
	codec     *blcr.Codec[S]
	states    []*S
	footprint int64
}

func (d *Resumable[S]) resumable() *Resumable[S] { return d }

// Footprint implements Instance.
func (d *Resumable[S]) Footprint(int) int64 { return d.footprint }

// Capture implements RestartableInstance.
func (d *Resumable[S]) Capture(rank int) ([]byte, error) { return d.codec.Append(nil, d.states[rank]) }

// SafePoint is a rank's CollectiveCheckpoint poll: Run calls Poll first in
// every iteration and talks on World.
type SafePoint struct {
	World *mpi.Comm
	skip  bool
}

// Poll is the iteration's checkpoint poll; a restored rank skips its first.
func (p *SafePoint) Poll(e *mpi.Env) {
	if !p.skip {
		e.CollectiveCheckpoint(p.World)
	}
	p.skip = false
}

// Launch starts inst on the n ranks of j, each from its state in appStates
// or fresh. A snapshot is captured inside an iteration's poll, and a
// restored rank resumes just after it: World skips the tags of the finished
// iterations and the poll's two, and the rank skips that poll. Re-running
// the poll is consistent when every rank restarts from the same epoch, but
// on a mixed-epoch line (message logging) it would re-request contributions
// the restored receive state already counts.
func (l *Loop[S, I]) Launch(j *mpi.Job, appStates [][]byte, n int, footprint int64, inst I) (RestartableInstance, error) {
	if err := checkSize(l.Name, n, j); err != nil {
		return nil, err
	}
	if appStates != nil && len(appStates) != n {
		return nil, fmt.Errorf("workload: %s: %d rank states for N=%d", l.Name, len(appStates), n)
	}
	d := inst.resumable()
	*d = Resumable[S]{codec: l.Codec, states: make([]*S, n), footprint: footprint}
	for i := range d.states { // every state before any rank: an error launches nothing
		switch {
		case appStates != nil && appStates[i] != nil:
			d.states[i] = new(S)
			if err := l.Codec.Decode(appStates[i], d.states[i]); err != nil {
				return nil, fmt.Errorf("workload: %s state for rank %d: %w", l.Name, i, err)
			}
		case l.Fresh != nil:
			d.states[i] = l.Fresh(inst, i)
		default:
			d.states[i] = new(S)
		}
	}
	for i, st := range d.states {
		restored := appStates != nil && appStates[i] != nil
		j.Launch(i, func(e *mpi.Env) {
			world := e.World()
			adv := l.Tags * l.Done(st)
			if restored {
				adv += 2
			}
			world.AdvanceCollSeq(adv)
			l.Run(inst, e, st, SafePoint{World: world, skip: restored})
		})
	}
	return inst, nil
}

// checkSize errors when a workload of n ranks is launched on a job of
// another size.
func checkSize(name string, n int, j *mpi.Job) error {
	if j.Size() != n {
		return fmt.Errorf("workload: %s: job size %d does not match N=%d", name, j.Size(), n)
	}
	return nil
}
