package blcr

import (
	"slices"
	"testing"
)

// fastestFirst is the hierarchy stack the tests lay copies out on.
var fastestFirst = []string{"ram", "burst", "central"}

// copiesAt counts (epoch, rank)'s copies at each tier of fastestFirst: the
// first non-zero entry is the level a restart reads from.
func copiesAt(st *Store, epoch, rank int) []int {
	n := make([]int, len(fastestFirst))
	for i, tier := range fastestFirst {
		n[i] = st.TierCopies(epoch, rank, tier)
	}
	return n
}

// trackEpoch registers the standard copy layout for one rank of an epoch:
// a k+1 RAM set on ring partners, one burst copy, one central copy.
func trackEpoch(st *Store, epoch, rank, n, k int) {
	st.AddReplica(epoch, rank, "ram", rank)
	for i := 1; i <= k; i++ {
		st.AddReplica(epoch, rank, "ram", (rank+i)%n)
	}
	st.AddReplica(epoch, rank, "burst", -1)
	st.AddReplica(epoch, rank, "central", -1)
}

func TestTierCopiesFallThroughTiers(t *testing.T) {
	const n = 4
	st := NewStore(n)
	fullEpoch(t, st, n, 1)
	trackEpoch(st, 1, 0, n, 1)
	for _, step := range []struct {
		drop string // the tier whose copies go first; "" for none
		want []int  // copies left at ram, burst, central
	}{
		{"", []int{2, 1, 1}},
		{"ram", []int{0, 1, 1}},     // both RAM copies lost with their nodes
		{"burst", []int{0, 0, 1}},   // the burst copy evicted
		{"central", []int{0, 0, 0}}, // every copy gone: unrecoverable
	} {
		if step.drop != "" {
			st.DropTierCopies(1, 0, step.drop)
		}
		if got := copiesAt(st, 1, 0); !slices.Equal(got, step.want) {
			t.Fatalf("after dropping %q: copies at ram/burst/central = %v, want %v", step.drop, got, step.want)
		}
	}
}

// TestUntrackedEpochIsRecoverable: a stand-alone store that no hierarchy
// writes to records no copies; its committed epochs are restart candidates
// all the same, but no tier holds a copy of them.
func TestUntrackedEpochIsRecoverable(t *testing.T) {
	st := NewStore(2)
	fullEpoch(t, st, 2, 1)
	if epoch, _, skipped := st.LatestVerified(); epoch != 1 || skipped != 0 {
		t.Fatalf("LatestVerified = (%d, skipped %d), want (1, 0)", epoch, skipped)
	}
	if epoch, s, _ := st.LatestRankDurable(0); epoch != 1 || s == nil {
		t.Fatalf("LatestRankDurable = (%d, %v), want epoch 1", epoch, s)
	}
	if got := copiesAt(st, 1, 0); !slices.Equal(got, []int{0, 0, 0}) {
		t.Fatalf("copies at ram/burst/central = %v with no copy recorded, want none", got)
	}
}

func TestLatestVerifiedSkipsEpochWithAllCopiesLost(t *testing.T) {
	const n = 2
	st := NewStore(n)
	fullEpoch(t, st, n, 1)
	fullEpoch(t, st, n, 2)
	for r := 0; r < n; r++ {
		trackEpoch(st, 1, r, n, 1)
		// Epoch 2 only ever reached RAM (drains abandoned).
		st.AddReplica(2, r, "ram", r)
		st.AddReplica(2, r, "ram", (r+1)%n)
	}
	if epoch, _, _ := st.LatestVerified(); epoch != 2 {
		t.Fatalf("LatestVerified = %d before loss, want 2", epoch)
	}
	// A 2-node memory loss destroys every RAM copy of epoch 2; epoch 1
	// survives at burst and central.
	lost := st.DropNodeReplicas(0) + st.DropNodeReplicas(1)
	if lost != 8 { // 2 ranks x 2 copies x 2 epochs
		t.Fatalf("DropNodeReplicas removed %d copies, want 8", lost)
	}
	epoch, snaps, skipped := st.LatestVerified()
	if epoch != 1 || skipped != 1 {
		t.Fatalf("LatestVerified = epoch %d, skipped %d; want epoch 1, skipped 1", epoch, skipped)
	}
	for r := 0; r < n; r++ {
		if snaps[r] == nil {
			t.Fatalf("fallback epoch missing rank %d", r)
		}
		if got := copiesAt(st, 1, r); !slices.Equal(got, []int{0, 1, 1}) {
			t.Fatalf("rank %d copies at ram/burst/central = %v, want [0 1 1] (reads from burst)", r, got)
		}
	}
}

func TestLatestRankDurableHonorsResidency(t *testing.T) {
	st := NewStore(1)
	fullEpoch(t, st, 1, 1)
	fullEpoch(t, st, 1, 2)
	st.AddReplica(2, 0, "ram", 0)
	if epoch, _, _ := st.LatestRankDurable(0); epoch != 2 {
		t.Fatalf("LatestRankDurable = %d, want 2", epoch)
	}
	st.DropTierCopies(2, 0, "ram")
	epoch, s, skipped := st.LatestRankDurable(0)
	if epoch != 1 || s == nil || skipped != 1 {
		t.Fatalf("LatestRankDurable = (%d, %v, %d) after copy loss, want (1, snap, 1)", epoch, s, skipped)
	}
}

func TestAddReplicaIdempotentAndRestoring(t *testing.T) {
	st := NewStore(2)
	fullEpoch(t, st, 2, 1)
	st.AddReplica(1, 0, "ram", 1)
	st.AddReplica(1, 0, "ram", 1) // duplicate: no double count
	if got := st.TierCopies(1, 0, "ram"); got != 1 {
		t.Fatalf("TierCopies = %d after duplicate add, want 1", got)
	}
	if st.DropTierCopies(1, 0, "ram") != 1 || st.DropTierCopies(1, 0, "ram") != 0 {
		t.Fatal("DropTierCopies must find the copy once")
	}
	if got := st.TierCopies(1, 0, "ram"); got != 0 {
		t.Fatalf("TierCopies = %d after the drop, want 0", got)
	}
	// The epoch stays tracked: with its only copy gone it is unrecoverable.
	if epoch, _, skipped := st.LatestVerified(); epoch != 0 || skipped != 1 {
		t.Fatalf("LatestVerified = (%d, skipped %d) with every copy lost, want (0, 1)", epoch, skipped)
	}
	// A re-drain writes the copy again.
	st.AddReplica(1, 0, "ram", 1)
	if got := st.TierCopies(1, 0, "ram"); got != 1 {
		t.Fatalf("TierCopies = %d after restoring add, want 1", got)
	}
}
