// Package pkg is a gbcrlint fixture module with one known finding
// (guardedby), exercised by the -json round-trip test.
package pkg

import "sync"

type state struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func read(s *state) int {
	return s.n
}
