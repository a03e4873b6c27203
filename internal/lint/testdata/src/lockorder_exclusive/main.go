// Locks held on exclusive paths are never held together. exclusive()
// takes a on one arm and b on the other; failedTry() takes b only on
// the arm where TryLock failed, so a is not held there. Against
// reverse()'s b -> a, neither forms a cycle: each arm starts from the
// state before the branch. Nothing here deadlocks, so nothing may be
// reported.
package main

import "sync"

var (
	a, b sync.Mutex
	x    bool
)

func exclusive() {
	if x {
		a.Lock()
		defer a.Unlock()
	} else {
		b.Lock()
		defer b.Unlock()
	}
}

func failedTry() {
	if !a.TryLock() {
		b.Lock()
		x = true
		b.Unlock()
		return
	}
	a.Unlock()
}

func reverse() {
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
}

func main() {
	go exclusive()
	go failedTry()
	go reverse()
}
