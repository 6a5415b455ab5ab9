package lib

import "testing"

func TestUnwired(t *testing.T) {
	Unwired()
	helper()
	_ = Config{NeverSet: 1, Excused: 2, Bare: 3}
}
