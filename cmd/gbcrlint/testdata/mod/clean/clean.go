// Package clean has no findings; the -json round-trip test uses it to
// check that an analyzed-but-clean run encodes as "[]".
package clean

type counter struct {
	n int
}

func (c *counter) bump() {
	c.n++
}
