package analysis_test

import (
	"testing"

	"gbcr/internal/analysis"
	"gbcr/internal/analysis/analysistest"
)

func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.SimDeterminism, "simdet")
}

func TestNoPanic(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.NoPanic, "panicky")
}

func TestGuardedBy(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.GuardedBy, "guarded", "guardedext")
}

func TestErrPropagation(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.ErrPropagation, "droppy")
}

func TestConfine(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.Confine, "confine")
}

func TestAllocFree(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.AllocFree, "allocfree")
}

func TestUnused(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.Unused, "unused/internal/lib")
}
