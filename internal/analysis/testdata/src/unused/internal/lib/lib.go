// Package lib is a fixture for the unused analyzer: one declaration of each
// class, and beside each the references that must keep a declaration quiet.
package lib

import "fmt"

type Config struct {
	Set      int
	NeverSet int // want `neverset: no non-test code assigns lib.Config.NeverSet`
	//lint:allow-unused the fixture's one justified exemption
	Excused int
	//lint:allow-unused
	Bare int // want `neverset: no non-test code assigns lib.Config.Bare`
}

// settings is not named Config or Options: its fields are not options.
type settings struct{ depth int }

func init() { fmt.Sprint(Wired(), measure(circle{}), span(circle{}), settings{}, circle{}.Radius()) }

func Wired() Config { return Config{Set: 1} }

func Dead() {} // want `dead: nothing references lib.Dead`

// A declaration's references to itself do not count.
func recursive() { recursive() } // want `dead: nothing references lib.recursive`

func Unwired() {} // want `unwired: only _test.go files reference lib.Unwired`

// helper is unexported: test-only is what an unexported test helper is for.
func helper() {}

// ExtOnly is referenced from package lib_test alone, which sees it through
// another types.Object than the one declared here.
func ExtOnly() {} // want `unwired: only _test.go files reference lib.ExtOnly`

// Having methods does not use a type.
type Orphan struct{} // want `dead: nothing references lib.Orphan`

func (*Orphan) Touch() {} // want `dead: nothing references lib.Orphan.Touch`

type shaper interface {
	area() float64
	perimeter() float64 // want `dead: nothing references lib.shaper.perimeter`
}

type circle struct{}

// area is reached only through shaper; perimeter is not reached at all, but
// an interface declares the name, so the pass does not guess; fmt finds
// String by reflection.
func (circle) area() float64      { return 3 }
func (circle) perimeter() float64 { return 6 }
func (circle) String() string     { return "circle" }

// Radius is exported and called from non-test code above.
func (circle) Radius() float64 { return 1 }

// Diameter is exported and only a test calls it directly, but an interface
// declares the name, so the pass does not guess.
func (circle) Diameter() float64 { return 2 }

type sized interface{ Diameter() float64 }

func span(s sized) float64 { return s.Diameter() }

// Scale is exported and only a test calls it: tested, never called.
func (circle) Scale() float64 { return 1 } // want `unwired: only _test.go files reference lib.circle.Scale`

// Limit is exported and only a test reads it.
const Limit = 8 // want `unwired: only _test.go files reference lib.Limit`

func measure(s shaper) float64 { return s.area() }
