package lib

import "testing"

func TestUnwired(t *testing.T) {
	Unwired()
	helper()
	_ = circle{}.Scale() + circle{}.Diameter() + Limit
	_ = Config{NeverSet: 1, Excused: 2, Bare: 3}
}
