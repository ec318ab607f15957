//go:build race

package main

// raceEnabled relaxes the smoke pass's time limit: the race detector
// slows the field arithmetic several-fold.
const raceEnabled = true
