// Fixture for unlockcheck: the early-return leak (flagged only because
// other paths in the same function DO unlock), double unlock, ignored
// try-lock results, and the balanced controls that must stay silent.
package main

import "sync"

var mu sync.Mutex

var bad bool

func leaky() bool {
	mu.Lock()
	if bad {
		return false // want `returns while still holding main.mu \(acquired at line 13; other paths unlock it\)`
	}
	mu.Unlock()
	return true
}

func double() {
	mu.Lock()
	mu.Unlock()
	mu.Unlock() // want `main.mu released twice on this path \(double unlock\)`
}

func tries() {
	if mu.TryLock() {
		mu.Unlock()
	}
	mu.TryLock() // want `result of mu.TryLock ignored: the lock state is unknown on failure`
	mu.Unlock()
}

// deferred is the good control: the deferred unlock covers every return
// path, including the early one.
func deferred() {
	mu.Lock()
	defer mu.Unlock()
	if bad {
		return
	}
	bad = true
}

// acquire deliberately returns holding the lock and never unlocks it
// itself — a lock-helper, not a leak. The inconsistency rule keeps it
// silent.
func acquire() *sync.Mutex {
	mu.Lock()
	return &mu
}

func main() {
	leaky()
	switchLeak(1)
	selectLeak(nil)
	double()
	tries()
	deferred()
	acquire().Unlock()
}

// switchLeak is leaky written as a switch: the releasing clause returns,
// so only the path that skipped it reaches the last return, still holding.
func switchLeak(k int) bool {
	mu.Lock()
	switch k {
	case 1:
		mu.Unlock()
		return true
	}
	return false // want `returns while still holding main.mu \(acquired at line \d+; other paths unlock it\)`
}

// selectLeak is the same leak written as a select.
func selectLeak(ch chan int) bool {
	mu.Lock()
	select {
	case <-ch:
		mu.Unlock()
		return true
	default:
	}
	return false // want `returns while still holding main.mu \(acquired at line \d+; other paths unlock it\)`
}
