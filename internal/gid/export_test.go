package gid

import "testing"

// keepMode restores the identity mode, the offset and the verification
// count when t ends, so a test may drive them. Discovery runs first, so it
// cannot overwrite what the test sets.
func keepMode(t testing.TB) {
	discovery.Do(discover)
	m, o, v := mode.Load(), off, verified.Load()
	t.Cleanup(func() {
		off = o
		verified.Store(v)
		mode.Store(m)
	})
}

// reverify restarts verification at the offset, shifted by delta bytes.
func reverify(t testing.TB, delta uintptr) {
	keepMode(t)
	off += delta
	verified.Store(0)
	mode.Store(modeVerifying)
}

// poison moves the discovered offset to the next word of g and restarts
// verification, as if discovery had settled on a word that only happened
// to equal the goid.
func poison(t testing.TB) { reverify(t, 8) }
