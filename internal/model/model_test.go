package model

import (
	"math"
	"testing"
	"testing/quick"

	"gbcr/internal/sim"
)

const hour = 60 * sim.Minute

func TestThunderbirdEstimate(t *testing.T) {
	// Section 3.1: "it still needs 1493 seconds (about 25 minutes)".
	got := Thunderbird().individualTime().Seconds()
	if math.Abs(got-1493) > 1 {
		t.Fatalf("Thunderbird estimate %.1f s, paper says 1493 s", got)
	}
}

func TestRegularEqualsGrouped1Group(t *testing.T) {
	p := Params{Procs: 32, GroupSize: 0, Footprint: 180 << 20, AggregateBW: 140 << 20}
	if p.individualTime() != p.totalTime() {
		t.Fatal("eq(2b): total must equal individual for the regular protocol")
	}
}

func TestGroupScaling(t *testing.T) {
	// Halving the group size halves the individual time (while the group is
	// bandwidth-bound) and keeps the total constant.
	base := Params{Procs: 32, Footprint: 180 << 20, AggregateBW: 140 << 20}
	p8, p4 := base, base
	p8.GroupSize = 8
	p4.GroupSize = 4
	if math.Abs(p8.individualTime().Seconds()/p4.individualTime().Seconds()-2) > 1e-9 {
		t.Fatal("eq(3a): individual time must scale with group size")
	}
	if p8.totalTime() != p4.totalTime() {
		t.Fatalf("eq(3b): total %v vs %v must be equal", p8.totalTime(), p4.totalTime())
	}
}

func TestClientCapLimitsSmallGroups(t *testing.T) {
	// With group size 1, the client link cap (not the servers) limits the
	// rate — the paper's explanation for group size 1 underperforming.
	p := Params{Procs: 32, GroupSize: 1, Footprint: 180 << 20,
		AggregateBW: 140 << 20, ClientBW: 116 << 20}
	wantInd := sim.Seconds(180.0 / 116.0)
	if d := p.individualTime() - wantInd; d < -sim.Millisecond || d > sim.Millisecond {
		t.Fatalf("individual %v, want %v (client-capped)", p.individualTime(), wantInd)
	}
	// Total exceeds the regular protocol's: storage is underutilized.
	reg := p
	reg.GroupSize = 0
	if p.totalTime() <= reg.totalTime() {
		t.Fatal("group size 1 should have a larger total than regular")
	}
}

func TestUnevenGroups(t *testing.T) {
	p := Params{Procs: 10, GroupSize: 4, Footprint: 100 << 20, AggregateBW: 100 << 20}
	if p.groups() != 3 {
		t.Fatalf("groups = %d, want 3 (4+4+2)", p.groups())
	}
}

// TestEffectiveDelayBoundsOrdering: equation (3c) bounds the effective
// checkpoint delay by the individual time below and the total time above, so
// the first never exceeds the second.
func TestEffectiveDelayBoundsOrdering(t *testing.T) {
	f := func(procs, group uint8, footMB uint16) bool {
		n := int(procs%64) + 1
		p := Params{
			Procs:       n,
			GroupSize:   int(group) % (n + 1),
			Footprint:   float64(footMB) * (1 << 20),
			AggregateBW: 140 << 20,
			ClientBW:    116 << 20,
		}
		lo, hi := p.individualTime(), p.totalTime()
		return lo >= 0 && lo <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalInterval(t *testing.T) {
	// Young: sqrt(2 * 41s * 4h) for the regular protocol on the testbed.
	mtbf := 4 * hour
	regular := OptimalInterval(41*sim.Second, mtbf)
	grouped := OptimalInterval(11*sim.Second, mtbf)
	if regular < 1000*sim.Second || regular > 1200*sim.Second {
		t.Fatalf("regular optimal interval %v, want ~1086s", regular)
	}
	// A cheaper checkpoint shortens the optimal interval...
	if grouped >= regular {
		t.Fatal("cheaper checkpoints must shorten the interval")
	}
	// ...and lowers the total expected overhead at its own optimum.
	ovR := ExpectedOverheadFraction(41*sim.Second, regular, mtbf)
	ovG := ExpectedOverheadFraction(11*sim.Second, grouped, mtbf)
	if ovG >= ovR {
		t.Fatalf("group-based expected overhead %.4f not below regular %.4f", ovG, ovR)
	}
}

func TestOptimalIntervalIsOptimal(t *testing.T) {
	cost, mtbf := 30*sim.Second, 2*hour
	opt := OptimalInterval(cost, mtbf)
	base := ExpectedOverheadFraction(cost, opt, mtbf)
	for _, factor := range []float64{0.5, 0.8, 1.25, 2} {
		alt := sim.Time(float64(opt) * factor)
		if ExpectedOverheadFraction(cost, alt, mtbf) < base-1e-12 {
			t.Fatalf("interval %v beats the 'optimal' %v", alt, opt)
		}
	}
}

func TestOptimalIntervalDegenerate(t *testing.T) {
	if OptimalInterval(0, hour) != 0 || OptimalInterval(sim.Second, 0) != 0 {
		t.Fatal("degenerate inputs")
	}
	if !math.IsInf(ExpectedOverheadFraction(sim.Second, 0, hour), 1) {
		t.Fatal("zero interval")
	}
}
