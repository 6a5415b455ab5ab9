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

func TestErrPropagation(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.ErrPropagation, "droppy")
}

func TestUnused(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.Unused, "unused/internal/lib")
}
