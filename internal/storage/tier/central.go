package tier

import (
	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// centralTier is the cold tier: the cluster's shared central storage System
// itself, not a copy. Drains into it therefore appear in the same fluid-flow
// schedule as foreground checkpoint writes and restart reads, competing for
// the same aggregate bandwidth — the background-drain interference the
// hierarchy exists to model. Alone, it is the one-level stack of
// ModeCentral.
type centralTier struct {
	h   *Hierarchy
	sys *storage.System
}

func (t *centralTier) Level() Level { return Central }

// readTime is one rank's share of a concurrent restart read-back: size over
// the aggregate rate.
func (t *centralTier) readTime(size int64) sim.Time {
	return sim.Seconds(float64(size) / t.sys.Config().AggregateBW)
}

func (t *centralTier) StartWrite(epoch, rank int, size int64) (*storage.Transfer, error) {
	return t.sys.Start(size)
}

func (t *centralTier) landed(epoch, rank int, size int64, ok bool) {
	if !ok {
		return
	}
	if t.h.arch.TierCopies(epoch, rank, string(Central)) == 0 {
		t.h.noteCold(epoch)
	}
	t.h.arch.AddReplica(epoch, rank, string(Central), -1)
}
