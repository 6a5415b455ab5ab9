package storage

import (
	"testing"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// countWhat tallies storage-layer events by What on one memory sink.
func countWhat(mem *obs.MemorySink, what obs.Kind) int {
	n := 0
	for _, e := range mem.ByLayer(obs.LayerStorage) {
		if e.What == what {
			n++
		}
	}
	return n
}

func TestReadDirectionTaggedEvents(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	bus := obs.NewBus()
	mem := &obs.MemorySink{}
	bus.AddSink(mem)
	s.SetObs(bus)
	k.Spawn("r", func(p *sim.Proc) {
		if _, err := s.Read(p, 100); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := count(s, "reads"); n != 1 || s.Transfers() != 1 {
		t.Fatalf("reads = %d, Transfers = %d; want 1, 1", n, s.Transfers())
	}
	for _, c := range []struct {
		what obs.Kind
		want int
	}{
		{obs.KindReadStart, 1}, {obs.KindReadEnd, 1}, {obs.KindXferStart, 0}, {obs.KindXferEnd, 0},
	} {
		if got := countWhat(mem, c.what); got != c.want {
			t.Errorf("%d %v events, want %d", got, c.what, c.want)
		}
	}
}

func TestStartReadZeroAndNegative(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	k.Spawn("r", func(p *sim.Proc) {
		if el, err := s.Read(p, 0); err != nil || el != 0 {
			t.Errorf("zero-byte read = (%v, %v), want (0, nil)", el, err)
		}
		if _, err := s.Read(p, -1); err == nil {
			t.Error("negative read accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
