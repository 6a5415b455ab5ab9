// Package pkg is a gbcrlint fixture module with one known finding
// (errpropagation), exercised by the -json round-trip test.
package pkg

import "errors"

func check() error { return errors.New("pkg: check failed") }

func run() {
	check()
}
