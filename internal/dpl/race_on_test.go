//go:build race

package dpl_test

// raceEnabled reports whether this test binary was built with the race
// detector, which slows the differentials' tens of thousands of
// compilations by an order of magnitude.
const raceEnabled = true
