package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

func simpleCfg() Config {
	return Config{AggregateBW: 100, ClientBW: 100}
}

// newSystem builds a System with a bus attached, failing the test on a
// config error.
func newSystem(t testing.TB, k *sim.Kernel, cfg Config) *System {
	t.Helper()
	s, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetObs(obs.NewBus())
	return s
}

// count reads one of the storage-layer counters of s's bus.
func count(s *System, name string) int64 {
	return s.bus.Metrics().Counter(obs.LayerStorage, name).Value()
}

// write performs a Write and reports any error on t, keeping the
// fluid-model assertions below focused on timing.
func write(t testing.TB, s *System, p *sim.Proc, n int64) sim.Time {
	el, err := s.Write(p, n)
	if err != nil {
		t.Error(err)
	}
	return el
}

// almost reports whether two times agree within a small fixed-point rounding
// tolerance.
func almost(a, b sim.Time) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 100*sim.Millisecond/1000 // 100us on second-scale transfers
}

func TestSingleWriterFullRate(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	var el sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		el = write(t, s, p, 100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(el, sim.Second) {
		t.Fatalf("100 bytes at 100 B/s took %v, want ~1s", el)
	}
}

func TestTwoWritersShareFairly(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			write(t, s, p, 100)
			done[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !almost(d, 2*sim.Second) {
			t.Fatalf("writer %d finished at %v, want ~2s", i, d)
		}
	}
}

func TestLateJoinerSlowsExisting(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	var d1, d2 sim.Time
	k.Spawn("w1", func(p *sim.Proc) {
		write(t, s, p, 100)
		d1 = p.Now()
	})
	k.Spawn("w2", func(p *sim.Proc) {
		p.Sleep(500 * sim.Millisecond)
		write(t, s, p, 50)
		d2 = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// w1: 50 bytes at 100 B/s, then 50 bytes at 50 B/s -> 1.5s total.
	// w2: 50 bytes at 50 B/s starting at 0.5s -> finishes 1.5s.
	if !almost(d1, 1500*sim.Millisecond) || !almost(d2, 1500*sim.Millisecond) {
		t.Fatalf("d1=%v d2=%v, want ~1.5s each", d1, d2)
	}
}

func TestEarlyFinisherSpeedsRemaining(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	var dBig, dSmall sim.Time
	k.Spawn("big", func(p *sim.Proc) {
		write(t, s, p, 100)
		dBig = p.Now()
	})
	k.Spawn("small", func(p *sim.Proc) {
		write(t, s, p, 50)
		dSmall = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Shared at 50 B/s until small finishes at 1s; big then has 50 bytes
	// left at full 100 B/s -> 1.5s.
	if !almost(dSmall, sim.Second) || !almost(dBig, 1500*sim.Millisecond) {
		t.Fatalf("small=%v big=%v, want 1s and 1.5s", dSmall, dBig)
	}
}

func TestClientBandwidthCap(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, Config{AggregateBW: 100, ClientBW: 30})
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			write(t, s, p, 30)
			done[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Aggregate would allow 50 B/s each but the client cap limits to 30.
	for i, d := range done {
		if !almost(d, sim.Second) {
			t.Fatalf("writer %d: %v, want ~1s (client cap)", i, d)
		}
	}
}

func TestOpenLatencyAdds(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, Config{AggregateBW: 100, ClientBW: 100, OpenLatency: 250 * sim.Millisecond})
	var el sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		el = write(t, s, p, 100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(el, 1250*sim.Millisecond) {
		t.Fatalf("elapsed %v, want ~1.25s", el)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	var el sim.Time = -1
	k.Spawn("w", func(p *sim.Proc) {
		el = write(t, s, p, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if el != 0 {
		t.Fatalf("zero-byte write took %v", el)
	}
}

func TestNegativeSizeError(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	if _, err := s.Start(-1); err == nil {
		t.Fatal("no error on negative size")
	}
}

func TestReadSharesPool(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	var dr, dw sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		if _, err := s.Read(p, 100); err != nil {
			t.Error(err)
		}
		dr = p.Now()
	})
	k.Spawn("w", func(p *sim.Proc) {
		write(t, s, p, 100)
		dw = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(dr, 2*sim.Second) || !almost(dw, 2*sim.Second) {
		t.Fatalf("read=%v write=%v, want ~2s each (shared pool)", dr, dw)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	var bw float64
	k.Spawn("w", func(p *sim.Proc) {
		tr, err := s.Start(200)
		if err != nil {
			t.Error(err)
			return
		}
		tr.Wait(p)
		bw = 200 / tr.Elapsed().Seconds()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(bw-100) > 0.5 {
		t.Fatalf("bandwidth %v, want ~100", bw)
	}
	if s.Transfers() != 1 || count(s, "bytes") != 200 {
		t.Fatalf("accounting: %d transfers, %v bytes", s.Transfers(), count(s, "bytes"))
	}
}

func TestMaxConcurrentTracking(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, simpleCfg())
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			write(t, s, p, 10)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.MaxConcurrent() != 5 {
		t.Fatalf("MaxConcurrent = %d, want 5", s.MaxConcurrent())
	}
}

// TestPaperEquation2 checks the paper's equation (2a): with all N processes
// writing footprint S concurrently, each individual time is N*S/B.
func TestPaperEquation2(t *testing.T) {
	k := sim.NewKernel(1)
	const n, footprint = 16, 64 * MB
	cfg := Config{AggregateBW: 140 * MB, ClientBW: 116 * MB}
	s := newSystem(t, k, cfg)
	var finish [n]sim.Time
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			write(t, s, p, footprint)
			finish[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Seconds(float64(n) * footprint / (140 * MB))
	for i, f := range finish {
		if math.Abs((f - want).Seconds()) > 0.01 {
			t.Fatalf("writer %d finished at %v, eq(2a) predicts %v", i, f, want)
		}
	}
}

// TestPaperEquation3 checks equation (3a)/(3b): writing group by group, each
// individual time is g*S/B and the total is (N/g) times that.
func TestPaperEquation3(t *testing.T) {
	k := sim.NewKernel(1)
	const n, g, footprint = 16, 4, 64 * MB
	cfg := Config{AggregateBW: 140 * MB, ClientBW: 116 * MB}
	s := newSystem(t, k, cfg)
	var writing [n / g]int // members of each group that have not finished
	var gate [n / g]sim.Cond
	for gi := range writing {
		writing[gi] = g
	}
	var individual [n]sim.Time
	var last sim.Time
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			grp := i / g
			for grp > 0 && writing[grp-1] > 0 {
				gate[grp-1].Wait(p, "previous group") // to finish
			}
			start := p.Now()
			write(t, s, p, footprint)
			individual[i] = p.Now() - start
			last = p.Now()
			if writing[grp]--; writing[grp] == 0 {
				gate[grp].Broadcast()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	wantInd := sim.Seconds(float64(g) * footprint / (140 * MB))
	for i, d := range individual {
		if math.Abs((d - wantInd).Seconds()) > 0.01 {
			t.Fatalf("writer %d individual time %v, eq(3a) predicts %v", i, d, wantInd)
		}
	}
	wantTotal := sim.Time(n/g) * wantInd
	if math.Abs((last - wantTotal).Seconds()) > 0.05 {
		t.Fatalf("total %v, eq(3b) predicts %v", last, wantTotal)
	}
}

// TestFigure1Shape reproduces Figure 1: per-client bandwidth collapses as
// client count grows while aggregate throughput plateaus near the server
// limit.
func TestFigure1Shape(t *testing.T) {
	perClient := make(map[int]float64)
	aggregate := make(map[int]float64)
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		k := sim.NewKernel(1)
		s := newSystem(t, k, PaperConfig())
		const size = 64 * MB
		var makespan sim.Time
		for i := 0; i < n; i++ {
			k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				write(t, s, p, size)
				if p.Now() > makespan {
					makespan = p.Now()
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		perClient[n] = size / makespan.Seconds() / MB
		aggregate[n] = float64(n) * size / makespan.Seconds() / MB
	}
	// Single client is limited by its own link (~116 MB/s), not the servers.
	if perClient[1] < 110 || perClient[1] > 120 {
		t.Fatalf("1 client: %v MB/s, want ~116", perClient[1])
	}
	// Aggregate plateaus near 140 MB/s from 2 clients on.
	for _, n := range []int{2, 4, 8, 16, 32} {
		if aggregate[n] < 130 || aggregate[n] > 141 {
			t.Fatalf("%d clients: aggregate %v MB/s, want ~140", n, aggregate[n])
		}
	}
	// Per-client bandwidth strictly decreases with client count.
	prev := math.Inf(1)
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		if perClient[n] >= prev {
			t.Fatalf("per-client bandwidth not decreasing at n=%d: %v", n, perClient)
		}
		prev = perClient[n]
	}
	// 32 clients obtain roughly the paper's 4.38 MB/client ratio.
	if perClient[32] < 3.8 || perClient[32] > 4.6 {
		t.Fatalf("32 clients: %v MB/s per client, paper reports ~4.38", perClient[32])
	}
}

// Property: random transfer workloads always complete, and every transfer
// takes at least as long as its unconstrained minimum (size/clientBW) and at
// least as long as perfect aggregate sharing would allow.
func TestQuickFluidModelBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		cfg := Config{AggregateBW: 1000, ClientBW: 400}
		s := newSystem(t, k, cfg)
		n := rng.Intn(8) + 1
		type res struct {
			size    int64
			elapsed sim.Time
			ok      bool
		}
		results := make([]res, n)
		for i := 0; i < n; i++ {
			size := int64(rng.Intn(2000) + 1)
			delay := sim.Time(rng.Intn(1000))
			i := i
			results[i].size = size
			k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				p.Sleep(delay)
				results[i].elapsed = write(t, s, p, size)
				results[i].ok = true
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for _, r := range results {
			if !r.ok {
				return false
			}
			min := sim.Seconds(float64(r.size) / cfg.ClientBW)
			if r.elapsed < min-sim.Microsecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bytes moved equals the sum of requested sizes (byte
// conservation through rate changes).
func TestQuickByteConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := sim.NewKernel(7)
		s := newSystem(t, k, Config{AggregateBW: 500, ClientBW: 250})
		var want int64
		for i, sz := range sizes {
			if i >= 10 {
				break
			}
			want += int64(sz)
			sz := sz
			k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				write(t, s, p, int64(sz))
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return count(s, "bytes") == want && len(s.active) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperConfigDefaults(t *testing.T) {
	cfg := PaperConfig()
	if cfg.AggregateBW != 140*MB {
		t.Fatalf("AggregateBW = %v", cfg.AggregateBW)
	}
	if cfg.Droop <= 0 || cfg.Droop >= 0.05 {
		t.Fatalf("Droop = %v, want a slight droop", cfg.Droop)
	}
}

// TestDroop: up to four concurrent writers share the whole aggregate; eight
// lose Droop of it for the one doubling beyond four.
func TestDroop(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want sim.Time
	}{{4, 4 * sim.Second}, {8, sim.Seconds(8 / 0.99)}} {
		k := sim.NewKernel(1)
		s := newSystem(t, k, Config{AggregateBW: 100, ClientBW: 100, Droop: 0.01})
		var last sim.Time
		for i := 0; i < tc.n; i++ {
			k.Spawn("w", func(p *sim.Proc) {
				write(t, s, p, 100)
				last = max(last, p.Now())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !almost(last, tc.want) {
			t.Errorf("%d writers of 100 bytes finished at %v, want ~%v", tc.n, last, tc.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(k, Config{}); err == nil {
		t.Fatal("no error for non-positive AggregateBW")
	}
}

func TestZeroClientBWDefaultsToAggregate(t *testing.T) {
	k := sim.NewKernel(1)
	s := newSystem(t, k, Config{AggregateBW: 100})
	if s.Config().ClientBW != 100 {
		t.Fatalf("ClientBW = %v, want 100", s.Config().ClientBW)
	}
}

func TestShareJitterUnbalancesTransfers(t *testing.T) {
	k := sim.NewKernel(42)
	s := newSystem(t, k, Config{AggregateBW: 100, ClientBW: 100, ShareJitter: 0.4})
	const n = 8
	finishes := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			write(t, s, p, 100)
			finishes[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// With jitter, identical transfers finish at different times; the
	// slowest (the makespan) exceeds the fair-share prediction of 8 s.
	var lo, hi sim.Time = 1 << 62, 0
	for _, f := range finishes {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi-lo < 100*sim.Millisecond {
		t.Fatalf("jitter produced near-identical finishes: spread %v", hi-lo)
	}
	if hi <= 8*sim.Second {
		t.Fatalf("makespan %v should exceed the fair-share 8s", hi)
	}
	// But not absurdly: the weight range bounds the straggler effect.
	if hi > 12*sim.Second {
		t.Fatalf("makespan %v too large", hi)
	}
}

func TestShareJitterZeroIsFair(t *testing.T) {
	k := sim.NewKernel(42)
	s := newSystem(t, k, Config{AggregateBW: 100, ClientBW: 100})
	var f1, f2 sim.Time
	k.Spawn("a", func(p *sim.Proc) { write(t, s, p, 100); f1 = p.Now() })
	k.Spawn("b", func(p *sim.Proc) { write(t, s, p, 100); f2 = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatalf("fair sharing broken without jitter: %v vs %v", f1, f2)
	}
}
