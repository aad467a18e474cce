//go:build race

package mbd

const raceEnabled = true
