package sim

// Cond is a condition variable for simulated processes. As with sync.Cond,
// waiters must re-check their predicate in a loop because wake-ups may be
// spurious and Broadcast wakes everyone.
//
// The zero value is ready to use.
type Cond struct {
	waiters []*Proc
}

// Wait parks the calling process on the condition. It reports whether the
// wait ended because of an interrupt rather than a Broadcast.
func (c *Cond) Wait(p *Proc, reason string) (interrupted bool) {
	c.waiters = append(c.waiters, p)
	intr := p.Park(reason)
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	return intr
}

// Broadcast wakes all current waiters.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w.Unpark()
	}
}
