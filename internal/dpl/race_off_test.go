//go:build !race

package dpl_test

const raceEnabled = false
