// Package lib gives the fixture module one whole-program finding: nothing
// in the module references Orphan.
package lib

func Orphan() {}
