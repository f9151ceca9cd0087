//go:build race

package main

// raceEnabled mirrors the build-tag pair the internal packages use.
const raceEnabled = true
