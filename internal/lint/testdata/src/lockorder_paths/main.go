// An early return that releases: the unlock-and-return arm never reaches
// b.Lock(), so the path that does reaches it still holding a. Replaying
// the returning arm into the fall-through would release a first and
// miss the a -> b edge that closes the cycle with reverse().
package main

import "sync"

var (
	a, b   sync.Mutex
	closed bool
)

func holder() {
	a.Lock()
	if closed {
		a.Unlock()
		return
	}
	b.Lock() // want `lock-order inversion: main.a -> main.b -> main.a`
	b.Unlock()
	a.Unlock()
}

func reverse() {
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
}

func main() {
	go holder()
	go reverse()
}
