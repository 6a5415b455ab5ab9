package storage

import (
	"errors"
	"math"
	"testing"

	"gbcr/internal/sim"
)

func TestOutageAbortsInFlightWrite(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	var gotErr error
	k.Spawn("w", func(p *sim.Proc) {
		_, gotErr = s.Write(p, 100)
	})
	k.At(sim.Second/2, func() { s.SetAvailability(0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrUnavailable) {
		t.Fatalf("write error = %v, want ErrUnavailable", gotErr)
	}
	if n := count(s, "xfer_aborts"); n != 1 {
		t.Fatalf("aborted = %d, want 1", n)
	}
}

func TestOutageRejectsNewTransfers(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	s.SetAvailability(0)
	var gotErr error
	k.Spawn("w", func(p *sim.Proc) {
		_, gotErr = s.Write(p, 100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrUnavailable) {
		t.Fatalf("write error = %v, want ErrUnavailable", gotErr)
	}
}

func TestDegradationScalesRate(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	s.SetAvailability(0.5)
	var el sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		el = write(t, s, p, 100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(el, 2*sim.Second) {
		t.Fatalf("100 bytes at half of 100 B/s took %v, want ~2s", el)
	}
}

func TestAvailabilityRestoredMidTransfer(t *testing.T) {
	// Half rate for the first second (50 bytes done), then full rate for the
	// remaining 50 bytes: 1s + 0.5s.
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	s.SetAvailability(0.5)
	k.At(sim.Second, func() { s.SetAvailability(1) })
	var el sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		el = write(t, s, p, 100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(el, 3*sim.Second/2) {
		t.Fatalf("write under mid-transfer recovery took %v, want ~1.5s", el)
	}
}

// A degrade factor so small that the write's completion lies past the end of
// simulated time stalls the write for the window instead of completing it at
// once (a duration past the int64 range) or overflowing the clock (one just
// inside it): it finishes one window later than at full rate, within a
// nanosecond. 100 bytes at 100 B/s take 1 s; a 1 s window at each factor
// starts half-way, with 50 bytes, 5e8/factor ns at the degraded rate, left.
func TestNearZeroDegradeStallsTheWrite(t *testing.T) {
	for _, factor := range []float64{
		1e-9,  // completes 5e17 ns on: armed, then rescheduled at the window's end
		1e-11, // 5e19 ns: past the int64 range
		5e8 / float64(math.MaxInt64-sim.Second/4), // just inside it, but past the clock's end
		1e-300,
	} {
		k := sim.NewKernel(1)
		s := newSystem(t, k, simpleCfg())
		k.At(sim.Second/2, func() { s.SetAvailability(factor) })
		k.At(3*sim.Second/2, func() { s.SetAvailability(1) })
		var el sim.Time
		k.Spawn("w", func(p *sim.Proc) {
			el = write(t, s, p, 100)
		})
		if err := k.Run(); err != nil {
			t.Fatalf("factor %g: %v", factor, err)
		}
		if d := el - 2*sim.Second; d < -1 || d > 1 {
			t.Errorf("factor %g: write took %v, want 2s within 1ns", factor, el)
		}
	}
}

func TestSetAvailabilityClamps(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	s.SetAvailability(-2)
	if s.availability != 0 {
		t.Fatalf("availability = %v, want 0 after clamp", s.availability)
	}
	s.SetAvailability(7)
	if s.availability != 1 {
		t.Fatalf("availability = %v, want 1 after clamp", s.availability)
	}
}

func TestCancelFreesBandwidthForTheOthers(t *testing.T) {
	// Two 100-byte writers share 100 B/s. The first is cancelled at 1 s with
	// 50 bytes moved each; the survivor's remaining 50 bytes then run at the
	// full rate and land at 1.5 s instead of 2 s.
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	cause := errors.New("owner gave up")
	var cancelled, survivor *Transfer
	k.After(0, func() {
		cancelled, _ = s.Start(100)
		survivor, _ = s.Start(100)
		k.After(sim.Second, func() { cancelled.Cancel(cause) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(cancelled.Err(), cause) || cancelled.Elapsed() != sim.Second {
		t.Fatalf("cancelled transfer: err %v after %v, want the cause after 1s", cancelled.Err(), cancelled.Elapsed())
	}
	if survivor.Err() != nil || !almost(survivor.Elapsed(), 1500*sim.Millisecond) {
		t.Fatalf("survivor: err %v after %v, want success after ~1.5s", survivor.Err(), survivor.Elapsed())
	}
	cancelled.Cancel(cause) // finished: a no-op
	if n := count(s, "xfer_aborts"); n != 1 || len(s.active) != 0 {
		t.Fatalf("aborted = %d, active = %d; want 1, 0", n, len(s.active))
	}
}

func TestCancelDuringOpenNeverStarts(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := simpleCfg()
	cfg.OpenLatency = 10 * sim.Millisecond
	s := newSystem(t, k, cfg)
	var tr *Transfer
	k.After(0, func() {
		tr, _ = s.Start(100)
		tr.Cancel(errors.New("owner gave up"))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Err() == nil || s.MaxConcurrent() != 0 {
		t.Fatalf("transfer cancelled during its open: err %v, max concurrent %d; want an error and 0", tr.Err(), s.MaxConcurrent())
	}
}
