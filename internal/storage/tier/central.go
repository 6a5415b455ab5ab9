package tier

import (
	"fmt"

	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// centralTier is the cold tier: the cluster's shared central storage System
// itself, not a copy. Drains into it therefore appear in the same fluid-flow
// schedule as foreground checkpoint writes and restart reads, competing for
// the same aggregate bandwidth — the background-drain interference the
// hierarchy exists to model.
type centralTier struct {
	h   *Hierarchy
	sys *storage.System
}

func (t *centralTier) Level() Level       { return Central }
func (t *centralTier) ParallelRead() bool { return false }

// ReadTime matches the legacy restart estimate: each rank's read-back costs
// size/aggregate, summed across concurrent readers by the caller.
func (t *centralTier) ReadTime(size int64) sim.Time {
	return sim.Seconds(float64(size) / t.sys.Config().AggregateBW)
}

func (t *centralTier) StartWrite(epoch, rank int, size int64) (*storage.Transfer, error) {
	arch := t.h.arch
	if arch == nil {
		return nil, fmt.Errorf("tier: central write before Bind")
	}
	tr, err := t.sys.Start(size)
	if err != nil {
		return nil, err
	}
	tr.OnDone(func() {
		if tr.Err() != nil {
			return
		}
		if arch.TierIntact(epoch, rank, string(Central)) == 0 {
			t.h.noteCold(epoch)
		}
		arch.AddReplica(epoch, rank, string(Central), -1)
	})
	return tr, nil
}
