package blcr

import (
	"testing"

	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// put stores a snapshot, failing the test on a duplicate.
func put(t testing.TB, st *Store, s *Snapshot) {
	t.Helper()
	if err := st.Put(s); err != nil {
		t.Fatal(err)
	}
}

// Verify catches a flipped bit at every offset of either blob or of any
// header number, and a byte moved from one blob to the other.
func TestSnapshotVerify(t *testing.T) {
	app, lib := []byte("application state"), []byte("library state")
	s := New(3, 2, 5*sim.Second, 100<<20, app, lib)
	for _, blob := range [][]byte{app, lib} {
		for i := range blob {
			for bit := 0; bit < 8; bit++ {
				blob[i] ^= 1 << bit
				if s.Verify() == nil {
					t.Fatalf("a flip of bit %d at byte %d of %q passed Verify", bit, i, blob)
				}
				blob[i] ^= 1 << bit
			}
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 64; bit++ {
		for _, change := range []struct {
			field string
			do    func(c *Snapshot)
		}{
			{"Rank", func(c *Snapshot) { c.Rank ^= 1 << bit }},
			{"Epoch", func(c *Snapshot) { c.Epoch ^= 1 << bit }},
			{"Footprint", func(c *Snapshot) { c.Footprint ^= 1 << bit }},
		} {
			c := *s
			change.do(&c)
			if c.Verify() == nil {
				t.Errorf("a flip of bit %d of %s passed Verify", bit, change.field)
			}
		}
	}
	c := *s // one byte moved from the end of one blob to the start of the other
	c.AppState, c.LibState = app[:len(app)-1], append([]byte{app[len(app)-1]}, lib...)
	if c.Verify() == nil {
		t.Error("a byte moved across the blobs' boundary passed Verify")
	}
}

var sinkSnapshot *Snapshot

// New allocates the Snapshot and nothing else: the checksum formats nothing.
func TestNewAllocatesOnlyTheSnapshot(t *testing.T) {
	app, lib := make([]byte, 4096), make([]byte, 100)
	if n := testing.AllocsPerRun(100, func() { sinkSnapshot = New(1, 2, 3, 4, app, lib) }); n != 1 {
		t.Errorf("New makes %v allocations, want 1", n)
	}
}

func TestSnapshotSize(t *testing.T) {
	s := New(0, 1, 0, 1000, make([]byte, 10), make([]byte, 20))
	if s.Size() != 1030 {
		t.Fatalf("Size = %d", s.Size())
	}
}

func TestSnapshotWriteReadTiming(t *testing.T) {
	k := sim.NewKernel(1)
	st, err := storage.New(k, storage.Config{AggregateBW: 1000, ClientBW: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s := New(0, 1, 0, 1000, nil, nil)
	var wrote, read sim.Time
	k.Spawn("p", func(p *sim.Proc) {
		var werr, rerr error
		wrote, werr = st.Write(p, s.Size())
		read, rerr = st.Read(p, s.Size())
		if werr != nil || rerr != nil {
			t.Errorf("write err %v, read err %v", werr, rerr)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wrote != sim.Second || read != sim.Second {
		t.Fatalf("write %v read %v, want 1s each", wrote, read)
	}
}

func TestStoreCompleteness(t *testing.T) {
	st := NewStore(3)
	for r := 0; r < 3; r++ {
		put(t, st, New(r, 1, 0, 100, nil, nil))
	}
	if err := st.MarkComplete(1); err != nil {
		t.Fatal(err)
	}
	if !st.Complete(1) || st.Complete(2) {
		t.Fatal("completeness flags wrong")
	}
	e, snaps, _ := st.LatestVerified()
	if e != 1 || len(snaps) != 3 {
		t.Fatalf("LatestVerified = %d, %d snaps", e, len(snaps))
	}
	if st.Get(1, 2).Rank != 2 {
		t.Fatal("Get")
	}
}

func TestStoreLatestPrefersNewest(t *testing.T) {
	st := NewStore(2)
	for epoch := 1; epoch <= 3; epoch++ {
		for r := 0; r < 2; r++ {
			put(t, st, New(r, epoch, 0, 100, nil, nil))
		}
		if err := st.MarkComplete(epoch); err != nil {
			t.Fatal(err)
		}
	}
	if e, _, _ := st.LatestVerified(); e != 3 {
		t.Fatalf("LatestVerified epoch %d, want 3", e)
	}
}

func TestStoreLatestEmpty(t *testing.T) {
	st := NewStore(2)
	if e, snaps, _ := st.LatestVerified(); e != 0 || snaps != nil {
		t.Fatal("empty store should have no latest epoch")
	}
}

func TestStoreDuplicateError(t *testing.T) {
	st := NewStore(2)
	put(t, st, New(0, 1, 0, 100, nil, nil))
	if err := st.Put(New(0, 1, 0, 100, nil, nil)); err == nil {
		t.Fatal("duplicate snapshot accepted")
	}
}

// TestStorePutRejectsOutOfRange: a rank outside [0, n) or an epoch below 1
// is an error, and the rejected Put leaves the store as it was.
func TestStorePutRejectsOutOfRange(t *testing.T) {
	const n = 4
	st := NewStore(n)
	put(t, st, New(0, 1, 0, 100, nil, nil))
	for _, s := range []*Snapshot{New(-1, 1, 0, 100, nil, nil), New(n, 1, 0, 100, nil, nil), New(0, 0, 0, 100, nil, nil)} {
		if err := st.Put(s); err == nil {
			t.Fatalf("Put(rank %d, epoch %d) accepted in a %d-rank store", s.Rank, s.Epoch, n)
		}
	}
	if len(st.rows) != 2 || st.Get(1, 0) == nil {
		t.Fatalf("store changed by rejected Puts: %d rows", len(st.rows))
	}
	for r := 1; r < n; r++ {
		if st.Get(1, r) != nil || st.Get(0, r) != nil {
			t.Fatalf("rank %d holds a snapshot after rejected Puts", r)
		}
	}
}

func TestStoreIncompleteMarkError(t *testing.T) {
	st := NewStore(2)
	put(t, st, New(0, 1, 0, 100, nil, nil))
	if err := st.MarkComplete(1); err == nil {
		t.Fatal("incomplete epoch marked complete")
	}
}

// fullEpoch archives one snapshot per rank for an epoch and marks it
// complete.
func fullEpoch(t testing.TB, st *Store, n, epoch int) {
	t.Helper()
	for r := 0; r < n; r++ {
		put(t, st, New(r, epoch, sim.Second, 1<<20, []byte{byte(r)}, nil))
	}
	if err := st.MarkComplete(epoch); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptDefeatsVerify(t *testing.T) {
	for _, s := range []*Snapshot{
		New(0, 1, 0, 1<<20, []byte("app"), []byte("lib")),
		New(0, 1, 0, 1<<20, nil, []byte("lib")),
		New(0, 1, 0, 1<<20, nil, nil), // timing-only snapshot: checksum flip
	} {
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
		s.Corrupt()
		if err := s.Verify(); err == nil {
			t.Fatal("Corrupt() survived Verify()")
		}
	}
}

func TestMarkCompleteRejectsCorruptSnapshot(t *testing.T) {
	// The second commit phase re-verifies: a snapshot damaged between write
	// and commit must keep the epoch from ever becoming a restart candidate.
	st := NewStore(2)
	put(t, st, New(0, 1, 0, 1<<20, []byte("a"), nil))
	s := New(1, 1, 0, 1<<20, []byte("b"), nil)
	put(t, st, s)
	s.Corrupt()
	if err := st.MarkComplete(1); err == nil {
		t.Fatal("corrupt epoch committed")
	}
	if st.Complete(1) {
		t.Fatal("epoch marked complete despite rejection")
	}
}

func TestDiscardAbortsUncommittedEpoch(t *testing.T) {
	st := NewStore(2)
	put(t, st, New(0, 1, 0, 1<<20, nil, nil))
	if err := st.Discard(1); err != nil {
		t.Fatal(err)
	}
	if st.Get(1, 0) != nil {
		t.Fatal("discarded snapshot still archived")
	}
	// The epoch can be rebuilt from scratch afterwards (the retry path).
	fullEpoch(t, st, 2, 1)
	if !st.Complete(1) {
		t.Fatal("retried epoch did not commit")
	}
}

func TestDiscardRefusesCommittedEpoch(t *testing.T) {
	st := NewStore(1)
	fullEpoch(t, st, 1, 1)
	if err := st.Discard(1); err == nil {
		t.Fatal("committed epoch discarded")
	}
}

func TestLatestVerifiedFallsBackPastCorruption(t *testing.T) {
	// Restart-time bit rot: the newest committed epoch no longer verifies,
	// so restart must fall back to the previous committed epoch.
	const n = 3
	st := NewStore(n)
	fullEpoch(t, st, n, 1)
	fullEpoch(t, st, n, 2)
	st.Get(2, 1).Corrupt()
	epoch, snaps, skipped := st.LatestVerified()
	if epoch != 1 || skipped != 1 {
		t.Fatalf("LatestVerified = epoch %d, skipped %d; want epoch 1, skipped 1", epoch, skipped)
	}
	for r := 0; r < n; r++ {
		if snaps[r] == nil || snaps[r].Verify() != nil {
			t.Fatalf("fallback epoch snapshot for rank %d unusable", r)
		}
	}
	// The corrupt epoch is still committed: only the verified lookup is
	// restart-safe.
	if !st.Complete(2) {
		t.Fatal("corrupt epoch 2 no longer committed")
	}
}

func TestLatestVerifiedAllCorrupt(t *testing.T) {
	st := NewStore(1)
	fullEpoch(t, st, 1, 1)
	fullEpoch(t, st, 1, 2)
	st.Get(1, 0).Corrupt()
	st.Get(2, 0).Corrupt()
	epoch, snaps, skipped := st.LatestVerified()
	if epoch != 0 || snaps != nil || skipped != 2 {
		t.Fatalf("LatestVerified = (%d, %v, %d), want (0, nil, 2)", epoch, snaps, skipped)
	}
}
