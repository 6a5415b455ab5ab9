package tier

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"gbcr/internal/blcr"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// gib is one gibibyte: burst-tier images are sized against the buffer's
// 2 GiB capacity. Payloads are lengths, so large images cost nothing.
const gib = 1 << 30

// rig is one assembled hierarchy test fixture: a kernel, the shared central
// system the cold tier wraps, the bound snapshot archive, the hierarchy, and
// the bus whose registry counts its activity.
type rig struct {
	k       *sim.Kernel
	central *storage.System
	arch    *blcr.Store
	h       *Hierarchy
	bus     *obs.Bus
}

// newRig builds a hierarchy over an n-rank archive. centralBW is the shared
// service's aggregate (and per-client) rate; linkBW the fabric link rate the
// RAM tier defaults to.
func newRig(t testing.TB, cfg Config, n int, centralBW, linkBW float64) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	central, err := storage.New(k, storage.Config{AggregateBW: centralBW, ClientBW: centralBW})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(k, cfg, n, central, linkBW)
	if err != nil {
		t.Fatal(err)
	}
	arch := blcr.NewStore(n)
	h.Bind(arch)
	bus := obs.NewBus()
	h.SetObs(bus)
	return &rig{k: k, central: central, arch: arch, h: h, bus: bus}
}

// count reads one of the hierarchy's storage-layer counters
// (tier_drains_<level>, tier_drain_failures, tier_spills, tier_evictions).
func (r *rig) count(name string) int64 {
	return r.bus.Metrics().Counter(obs.LayerStorage, name).Value()
}

// writeWait starts a hierarchy write on behalf of p and blocks until its
// acknowledgement, returning the elapsed time to the ack tier's durability.
func writeWait(p *sim.Proc, h *Hierarchy, epoch, rank int, size int64) (sim.Time, error) {
	tr, err := h.StartWrite(epoch, rank, size)
	if err != nil {
		return 0, err
	}
	tr.Wait(p)
	return tr.Elapsed(), tr.Err()
}

// write performs one blocking hierarchy write from a spawned proc and runs
// the kernel until all follow-on drains settle.
func (r *rig) write(t testing.TB, epoch, rank int, size int64) sim.Time {
	t.Helper()
	var el sim.Time
	r.k.Spawn("w", func(p *sim.Proc) {
		var err error
		el, err = writeWait(p, r.h, epoch, rank, size)
		if err != nil {
			t.Errorf("write epoch %d rank %d: %v", epoch, rank, err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	return el
}

// readBack reads back epoch's images of the given ranks, size bytes each, the
// job's other ranks restarting from scratch, and returns each rank's level.
func (r *rig) readBack(t testing.TB, epoch int, size int64, ranks ...int) []Level {
	t.Helper()
	snaps := make([]*blcr.Snapshot, r.h.n)
	for _, rank := range ranks {
		snaps[rank] = blcr.New(rank, epoch, 0, size, nil, nil)
	}
	_, levels, err := r.h.ReadBack(r.k.Now(), snaps)
	if err != nil {
		t.Fatal(err)
	}
	return levels
}

func TestModePredicates(t *testing.T) {
	for _, tc := range []struct {
		mode          Mode
		valid, tiered bool
		has           []Level // the levels Has reports, of all four
		levels        int
	}{
		{"", true, false, []Level{Central}, 1},
		{ModeCentral, true, false, []Level{Central}, 1},
		{ModeBurst, true, true, []Level{Burst, Central}, 2},
		{ModeRAM, true, true, []Level{RAM, Central}, 2},
		{ModeHierarchy, true, true, []Level{RAM, Burst, Central}, 3},
		{ModeLocal, true, true, []Level{Local, Central}, 2},
		{"bogus", false, false, nil, 1},
	} {
		if tc.mode.Valid() != tc.valid || tc.mode.Tiered() != tc.tiered {
			t.Errorf("mode %q predicates: valid=%v tiered=%v", tc.mode, tc.mode.Valid(), tc.mode.Tiered())
		}
		for _, level := range []Level{RAM, Local, Burst, Central} {
			if got, want := tc.mode.Has(level), slices.Contains(tc.has, level); got != want {
				t.Errorf("mode %q Has(%s) = %v, want %v", tc.mode, level, got, want)
			}
		}
		if got := len(tc.mode.Levels()); got != tc.levels {
			t.Errorf("mode %q has %d levels, want %d", tc.mode, got, tc.levels)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Mode: "bogus"}).Validate(4); err == nil {
		t.Error("invalid mode accepted")
	}
	// k partners + the self copy must fit in the job.
	if err := (Config{Mode: ModeRAM, Replicas: 4}).Validate(4); err == nil {
		t.Error("replicas+1 > n accepted")
	}
	if err := (Config{Mode: ModeRAM, Replicas: 3}).Validate(4); err != nil {
		t.Errorf("replicas+1 == n rejected: %v", err)
	}
}

func TestRAMReplicaPlacementRing(t *testing.T) {
	r := newRig(t, Config{Mode: ModeRAM, Replicas: 2}, 4, 1000, 1000)
	r.write(t, 1, 3, 100)
	// Rank 3's copy set: itself plus partners on the ring wrapping to 0, 1.
	if got := r.arch.TierCopies(1, 3, string(RAM)); got != 3 {
		t.Fatalf("rank 3 has %d RAM copies, want 3 (k+1)", got)
	}
	// Rank 3's is the only image, so a node loss drops only its copies.
	for _, node := range []int{3, 0, 1} {
		if r.arch.DropNodeReplicas(node) != 1 {
			t.Errorf("expected a RAM copy on node %d", node)
		}
	}
	if r.arch.DropNodeReplicas(2) != 0 {
		t.Error("unexpected RAM copy on node 2 (not a ring partner of rank 3)")
	}
}

func TestRAMEgressSerializesReplicas(t *testing.T) {
	// k copies leave through the writer's single link: 2 x 100 bytes at
	// 100 B/s takes 2s even though the tier's aggregate is 4x that.
	r := newRig(t, Config{Mode: ModeRAM, Replicas: 2}, 4, 1e6, 100)
	el := r.write(t, 1, 0, 100)
	if el != 2*sim.Second {
		t.Fatalf("replication took %v, want 2s", el)
	}
}

func TestRAMDoubleBufferReleasesOldEpoch(t *testing.T) {
	r := newRig(t, Config{Mode: ModeRAM, Replicas: 1}, 2, 1000, 1000)
	r.write(t, 1, 0, 100)
	if got := r.arch.TierCopies(1, 0, string(RAM)); got != 2 {
		t.Fatalf("epoch 1 has %d RAM copies, want 2", got)
	}
	r.write(t, 2, 0, 100)
	if got := r.arch.TierCopies(1, 0, string(RAM)); got != 0 {
		t.Fatalf("epoch 1 keeps %d RAM copies after epoch 2 durable, want 0", got)
	}
	if got := r.arch.TierCopies(2, 0, string(RAM)); got != 2 {
		t.Fatalf("epoch 2 has %d RAM copies, want 2", got)
	}
	// The drained central copy keeps epoch 1 recoverable despite the
	// double-buffer release.
	if got := r.arch.TierCopies(1, 0, string(Central)); got != 1 {
		t.Fatalf("epoch 1 has %d central copies after drain, want 1", got)
	}
}

func TestDrainCascadeReachesCentral(t *testing.T) {
	r := newRig(t, Config{Mode: ModeHierarchy, Replicas: 1}, 2, 1000, 1000)
	r.write(t, 1, 0, 100)
	for _, want := range []struct {
		level Level
		n     int
	}{{RAM, 2}, {Burst, 1}, {Central, 1}} {
		if got := r.arch.TierCopies(1, 0, string(want.level)); got != want.n {
			t.Errorf("%s holds %d copies, want %d", want.level, got, want.n)
		}
	}
	// Two drain hops: ram -> burst, burst -> central.
	if b, c := r.count("tier_drains_burst"), r.count("tier_drains_central"); b != 1 || c != 1 {
		t.Errorf("drains into burst %d, into central %d; want 1 each", b, c)
	}
	if got := r.readBack(t, 1, 100, 0)[0]; got != RAM {
		t.Errorf("rank 0 reads back from %q, want ram", got)
	}
}

func TestCheckCommitGatesOnFullCopySet(t *testing.T) {
	r := newRig(t, Config{Mode: ModeRAM, Replicas: 1}, 2, 1000, 1000)
	if err := r.h.CheckCommit(1); err == nil {
		t.Fatal("empty epoch passed the commit gate")
	}
	r.write(t, 1, 0, 100)
	if err := r.h.CheckCommit(1); err == nil {
		t.Fatal("half-replicated epoch passed the commit gate")
	}
	r.write(t, 1, 1, 100)
	if err := r.h.CheckCommit(1); err != nil {
		t.Fatalf("fully replicated epoch failed the commit gate: %v", err)
	}
	// Losing both copies of a k=1 set defeats the RAM set, but the drained
	// central copy still satisfies the gate.
	r.arch.DropTierCopies(1, 0, string(RAM))
	if err := r.h.CheckCommit(1); err != nil {
		t.Fatalf("central copy should satisfy the gate: %v", err)
	}
}

func TestBurstEvictsDrainedImages(t *testing.T) {
	r := newRig(t, Config{Mode: ModeBurst}, 2, gib, gib)
	r.write(t, 1, 0, 6*gib/5) // 1.2 GiB fills past half; drains to central
	r.write(t, 2, 0, 6*gib/5) // needs room: epoch 1 is drained, so it is evicted
	if got := r.count("tier_evictions"); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := r.arch.TierCopies(1, 0, string(Burst)); got != 0 {
		t.Fatalf("evicted epoch 1 keeps %d burst copies", got)
	}
	if got := r.arch.TierCopies(1, 0, string(Central)); got != 1 {
		t.Fatalf("epoch 1 has %d central copies, want 1 (eviction requires a drained copy)", got)
	}
	if got := r.arch.TierCopies(2, 0, string(Burst)); got != 1 {
		t.Fatalf("epoch 2 has %d burst copies, want 1", got)
	}
}

func TestBurstFullSpillsThroughToCentral(t *testing.T) {
	// An image larger than the whole buffer can never fit: the burst tier
	// declines with ErrFull and the hierarchy writes through to central.
	r := newRig(t, Config{Mode: ModeBurst}, 2, gib, gib)
	r.write(t, 1, 0, 3*gib)
	if got := r.count("tier_spills"); got != 1 {
		t.Fatalf("spills = %d, want 1", got)
	}
	if got := r.arch.TierCopies(1, 0, string(Burst)); got != 0 {
		t.Fatalf("spilled image has %d burst copies", got)
	}
	if got := r.arch.TierCopies(1, 0, string(Central)); got != 1 {
		t.Fatalf("spilled image has %d central copies, want 1", got)
	}
	if err := r.h.CheckCommit(1); err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("commit gate should fail on unwritten rank 1, got %v", err)
	}
}

func TestDrainRetriesThroughOutage(t *testing.T) {
	r := newRig(t, Config{Mode: ModeRAM, Replicas: 1}, 2, 1000, 1000)
	// The central service is down when the drain first fires; it comes back
	// inside the retry budget, so the drain lands without a cycle failure.
	r.central.SetAvailability(0)
	r.k.After(500*sim.Millisecond, func() { r.central.SetAvailability(1) })
	r.write(t, 1, 0, 100)
	if d, f := r.count("tier_drains_central"), r.count("tier_drain_failures"); d != 1 || f != 0 {
		t.Fatalf("drains = %d, drain failures = %d; want 1, 0", d, f)
	}
	if got := r.arch.TierCopies(1, 0, string(Central)); got != 1 {
		t.Fatalf("epoch 1 has %d central copies after retried drain, want 1", got)
	}
}

func TestDrainAbandonedAfterRetryBudget(t *testing.T) {
	r := newRig(t, Config{Mode: ModeRAM, Replicas: 1}, 2, 1000, 1000)
	r.central.SetAvailability(0) // never restored
	r.write(t, 1, 0, 100)
	r.write(t, 1, 1, 100)
	if got := r.count("tier_drain_failures"); got != 2 {
		t.Fatalf("drain failures = %d, want 2", got)
	}
	// Abandonment is not data loss: the RAM copy set still commits.
	if err := r.h.CheckCommit(1); err != nil {
		t.Fatalf("RAM copies should keep the epoch committable: %v", err)
	}
	if got := r.readBack(t, 1, 100, 0)[0]; got != RAM {
		t.Fatalf("rank 0 reads back from %q, want ram", got)
	}
}

func TestWriteBeforeBindRejected(t *testing.T) {
	k := sim.NewKernel(1)
	central, err := storage.New(k, storage.Config{AggregateBW: 1000, ClientBW: 1000})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(k, Config{Mode: ModeRAM}, 4, central, 1000)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("w", func(p *sim.Proc) {
		if _, err := writeWait(p, h, 1, 0, 100); err == nil {
			t.Error("write before Bind accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckCommit(1); err == nil {
		t.Error("commit check before Bind accepted")
	}
}

// TestCentralStack: ModeCentral, and the zero Mode, build the one-level
// stack [central]. Its writes are recorded as shared copies on node -1, pass
// the commit gate, and survive any node loss.
func TestCentralStack(t *testing.T) {
	for _, mode := range []Mode{"", ModeCentral} {
		r := newRig(t, Config{Mode: mode}, 2, 1000, 1000)
		if got := mode.Levels(); len(got) != 1 || got[0] != Central || len(r.h.tiers) != 1 {
			t.Fatalf("mode %q stacks %v (%d tiers), want [central]", mode, got, len(r.h.tiers))
		}
		for rank := 0; rank < 2; rank++ {
			r.write(t, 1, rank, 100)
			if got := r.arch.TierCopies(1, rank, string(Central)); got != 1 {
				t.Fatalf("mode %q: rank %d has %d central copies, want 1", mode, rank, got)
			}
		}
		if err := r.h.CheckCommit(1); err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		for node := 0; node < 2; node++ {
			if lost := r.arch.DropNodeReplicas(node); lost != 0 {
				t.Errorf("mode %q: losing node %d dropped %d central copies", mode, node, lost)
			}
		}
		if err := r.h.CheckCommit(1); err != nil {
			t.Errorf("mode %q: central copies lost with a node: %v", mode, err)
		}
		if d := r.count("tier_drains_central"); d != 0 || r.central.Transfers() != 2 {
			t.Errorf("mode %q: %d drains, %d central transfers; want 0 and 2", mode, d, r.central.Transfers())
		}
	}
	k := sim.NewKernel(1)
	if _, err := NewHierarchy(k, Config{Mode: ModeRAM}, 4, nil, 1000); err == nil {
		t.Error("nil central system accepted")
	}
}

// TestCentralStackAllocs pins what the ledger costs a central write: one
// 32-rank epoch through the one-level stack (StartWrite, landing, CheckCommit)
// allocates at most one more object per write, plus a few per epoch, than
// the same 32 writes started on the storage system directly.
func TestCentralStackAllocs(t *testing.T) {
	const n, size = 32, 100
	direct := testing.AllocsPerRun(20, func() {
		k := sim.NewKernel(1)
		central, err := storage.New(k, storage.Config{AggregateBW: 1000, ClientBW: 1000})
		if err != nil {
			t.Fatal(err)
		}
		k.After(0, func() {
			for rank := 0; rank < n; rank++ {
				if _, err := central.Start(size); err != nil {
					t.Error(err)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	stacked := testing.AllocsPerRun(20, func() {
		r := newRig(t, Config{Mode: ModeCentral}, n, 1000, 1000)
		r.k.After(0, func() {
			for rank := 0; rank < n; rank++ {
				if _, err := r.h.StartWrite(1, rank, size); err != nil {
					t.Error(err)
				}
			}
		})
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		if err := r.h.CheckCommit(1); err != nil {
			t.Fatal(err)
		}
	})
	if limit := direct + n + 16; stacked > limit {
		t.Errorf("central epoch through the stack allocates %.0f, want at most %.0f (direct %.0f + %d writes + 16)",
			stacked, limit, direct, n)
	}
}

func TestBurstOutageAbortsAckWrite(t *testing.T) {
	r := newRig(t, Config{Mode: ModeBurst}, 2, 1000, 1000)
	if sys := r.h.BurstSystem(); sys == nil {
		t.Fatal("burst mode has no BurstSystem")
	} else {
		sys.SetAvailability(0)
	}
	var wErr error
	r.k.Spawn("w", func(p *sim.Proc) {
		_, wErr = writeWait(p, r.h, 1, 0, 100)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(wErr, storage.ErrUnavailable) {
		t.Fatalf("ack write during burst outage returned %v, want ErrUnavailable", wErr)
	}
	if got := r.arch.TierCopies(1, 0, string(Burst)); got != 0 {
		t.Fatalf("aborted write registered %d burst copies", got)
	}
}

func TestLocalStagesOnTheRanksOwnDisk(t *testing.T) {
	// Two ranks stage 60 MB at once. Node disks are unshared, so each ack
	// takes 1 s at the disk's 60 MB/s however many ranks write; the two drains
	// then share a 60 MB/s central service and land together at 3 s.
	const size = 60 * storage.MB
	r := newRig(t, Config{Mode: ModeLocal}, 2, 60*storage.MB, 1e9)
	for rank := 0; rank < 2; rank++ {
		rank := rank
		r.k.Spawn("w", func(p *sim.Proc) {
			el, err := writeWait(p, r.h, 1, rank, size)
			if err != nil || el != sim.Second {
				t.Errorf("rank %d: local ack took %v (err %v), want 1s", rank, el, err)
			}
			if err := r.h.CheckCommit(1); (err == nil) != (rank == 1) {
				t.Errorf("commit gate after rank %d's ack: %v", rank, err)
			}
			if r.h.ColdAt(1) != 0 {
				t.Errorf("epoch reported cold at %v with the drains still in flight", r.h.ColdAt(1))
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.h.ColdAt(1); got != 3*sim.Second {
		t.Errorf("ColdAt = %v, want 3s (the last drain's landing)", got)
	}
	if got := r.readBack(t, 1, size, 0, 1); got[0] != Local || got[1] != Local {
		t.Errorf("ranks recover from %v, want local", got)
	}
	// Each single staged copy is on its rank's own node and goes with it.
	for rank := 0; rank < 2; rank++ {
		if lost := r.arch.DropNodeReplicas(rank); lost != 1 {
			t.Errorf("node %d held %d copies, want 1", rank, lost)
		}
	}
	if got := r.readBack(t, 1, size, 0, 1); got[0] != Central || got[1] != Central {
		t.Errorf("ranks recover from %v after losing their nodes, want central", got)
	}
}

func TestCancelledAckWriteLeavesNothingBehind(t *testing.T) {
	// A cycle that aborts under an in-flight ack write cancels it: the burst
	// reservation is returned, no residency is registered, and no drain starts.
	// The 1 GiB image takes 2 s at one writer's 512 MB/s.
	r := newRig(t, Config{Mode: ModeBurst}, 2, gib, gib)
	cause := errors.New("cycle aborted")
	r.k.After(0, func() {
		tr, err := r.h.StartWrite(1, 0, gib)
		if err != nil {
			t.Fatal(err)
		}
		if r.h.tiers[0].used != gib {
			t.Errorf("in-flight write reserves %d bytes, want %d", r.h.tiers[0].used, gib)
		}
		r.k.After(500*sim.Millisecond, func() { tr.Cancel(cause) })
		tr.OnDone(func() {
			if !errors.Is(tr.Err(), cause) || r.k.Now() != 500*sim.Millisecond {
				t.Errorf("write ended at %v with %v, want the cancellation at 500ms", r.k.Now(), tr.Err())
			}
		})
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.h.tiers[0].used != 0 || len(r.h.tiers[0].resident) != 0 {
		t.Errorf("cancelled write left %d bytes reserved, %d resident entries", r.h.tiers[0].used, len(r.h.tiers[0].resident))
	}
	for _, level := range ModeBurst.Levels() {
		if got := r.arch.TierCopies(1, 0, string(level)); got != 0 {
			t.Errorf("cancelled write registered %d %s copies", got, level)
		}
	}
	if d := r.count("tier_drains_central"); d != 0 || r.central.Transfers() != 0 {
		t.Errorf("cancelled write started a drain (%d drains, %d central transfers)", d, r.central.Transfers())
	}
}

// TestReadBackPricesEachRanksFastestCopy: after node losses and an eviction,
// one restart reads rank 0 and rank 3 from RAM, rank 1 from the burst buffer
// and rank 2 from central storage; rank 4 restarts from scratch. The shared
// reads add up, the node-resident ones overlap: 1 s from burst + 0.5 s from
// central + the slower RAM read, 0.3 s.
func TestReadBackPricesEachRanksFastestCopy(t *testing.T) {
	r := newRig(t, Config{Mode: ModeHierarchy, Replicas: 1}, 5, 1000, 1000)
	for rank := 0; rank < 4; rank++ {
		r.write(t, 1, rank, 100)
	}
	// Rank r's RAM copies sit on nodes r and r+1.
	for _, node := range []int{1, 2, 3} {
		r.arch.DropNodeReplicas(node)
	}
	r.arch.DropTierCopies(1, 2, string(Burst))
	mem := &obs.MemorySink{}
	r.h.SetObs(obs.NewBus(mem))
	snaps := []*blcr.Snapshot{
		blcr.New(0, 1, 0, 100, nil, nil),
		blcr.New(1, 1, 0, gib, nil, nil),
		blcr.New(2, 1, 0, 500, nil, nil),
		blcr.New(3, 1, 0, 300, nil, nil),
		nil,
	}
	const at = 7 * sim.Second
	took, levels, err := r.h.ReadBack(at, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Level{RAM, Burst, Central, RAM, ""}; !slices.Equal(levels, want) {
		t.Errorf("levels %v, want %v", levels, want)
	}
	if want := 1800 * sim.Millisecond; took != want {
		t.Errorf("read-back took %v, want %v", took, want)
	}
	var got []Level
	for _, e := range mem.Events() {
		if e.What == obs.KindTierRecover && e.At == at && e.Arg == snaps[e.Rank].Size() {
			got = append(got, Level(e.Detail))
		}
	}
	if want := levels[:4]; !slices.Equal(got, want) {
		t.Errorf("tier-recover events %v, want %v at %v", got, want, at)
	}
	m := r.h.bus.Metrics()
	for i, level := range ModeHierarchy.Levels() {
		if n, want := m.Counter(obs.LayerStorage, "tier_recover_"+string(level)).Value(), []int64{2, 1, 1}[i]; n != want {
			t.Errorf("tier_recover_%s = %d, want %d", level, n, want)
		}
	}

	// The one-level stack reads everything from central and reports nothing.
	r = newRig(t, Config{Mode: ModeCentral}, 2, 1000, 1000)
	r.write(t, 1, 0, 100)
	r.write(t, 1, 1, 100)
	mem = &obs.MemorySink{}
	r.h.SetObs(obs.NewBus(mem))
	took, levels, err = r.h.ReadBack(at, snaps[:2:2])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(levels, []Level{Central, Central}) || took != sim.Seconds(0.1)+sim.Seconds(gib/1000.0) {
		t.Errorf("central read-back: levels %v in %v", levels, took)
	}
	if n := len(mem.Events()); n != 0 || r.h.bus.Metrics().Counter(obs.LayerStorage, "tier_recover_central").Value() != 0 {
		t.Errorf("one-level stack reported its read-back: %d events", n)
	}
	// A read-back allocates only the levels it returns.
	if a := testing.AllocsPerRun(10, func() { r.h.ReadBack(at, snaps[:2:2]) }); a > 1 {
		t.Errorf("a read-back allocates %.0f objects, want 1", a)
	}

	// A rank whose epoch has no copy left is an error.
	r.arch.DropTierCopies(1, 0, string(Central))
	if _, _, err := r.h.ReadBack(at, snaps[:2:2]); err == nil || !strings.Contains(err.Error(), "rank 0's epoch 1") {
		t.Errorf("read-back of a lost image returned %v", err)
	}
}
