package slab

import "testing"

// TestWindowsCapped: each window is empty with its capacity capped at n, so
// an append past it reallocates instead of writing into the next window; the
// windows run out after count, and then Next hands out nil.
func TestWindowsCapped(t *testing.T) {
	w := NewWindows[int](2, 3)
	a, b := w.Next(), w.Next()
	if len(a) != 0 || cap(a) != 3 || len(b) != 0 || cap(b) != 3 {
		t.Fatalf("windows of len/cap %d/%d and %d/%d, want 0/3", len(a), cap(a), len(b), cap(b))
	}
	b = append(b, 7)
	a = append(a, 1, 2, 3, 4) // outgrows its window
	if b[0] != 7 || len(a) != 4 {
		t.Fatalf("after the first window outgrew itself the second holds %v", b)
	}
	if c := w.Next(); c != nil {
		t.Fatalf("a third window of two: %v", c)
	}
	if var0 := (Windows[int]{}); var0.Next() != nil {
		t.Fatal("the zero Windows handed out a window")
	}
}

// TestTakeChunks: Take hands out each element of a chunk of n once, opens
// another chunk when one is spent, and what it handed out keeps its value.
func TestTakeChunks(t *testing.T) {
	var rest []int
	var got []*int
	for i := 0; i < 5; i++ {
		p := Take(&rest, 2)
		*p = i
		got = append(got, p)
	}
	for i, p := range got {
		if *p != i {
			t.Errorf("element %d reads %d", i, *p)
		}
	}
	if len(rest) != 1 {
		t.Errorf("%d elements left in the third chunk of 2, want 1", len(rest))
	}
}
