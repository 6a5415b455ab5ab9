package lib_test

import (
	"testing"

	"unused/internal/lib"
)

func TestExtOnly(t *testing.T) { lib.ExtOnly() }
