package core

import (
	"testing"
	"unsafe"
)

//go:noinline
func lockUnlockDeep(t *testing.T, th *Thread, m *Mutex, depth int) {
	if depth > 0 {
		lockUnlockDeep(t, th, m, depth-1)
		return
	}
	if err := m.LockT(th); err != nil {
		t.Error(err)
		return
	}
	if err := m.UnlockT(th); err != nil {
		t.Error(err)
	}
}

// TestCallSiteTableSharedAcrossThreads: classification does not depend on
// who is calling. Thread B is freshly registered and reaches the lock
// through a call path that shares only its innermost frames with the one
// thread A warmed (the goroutines start in different functions), so its
// first LockT is a hit on A's depth-bounded entry: no new call-site entry,
// no new interned stack, fast tier.
func TestCallSiteTableSharedAcrossThreads(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	m := rt.NewMutex()

	done := make(chan struct{})
	go func() { // thread A's entry function
		defer close(done)
		a := rt.RegisterThread("a")
		defer a.Close()
		for i := 0; i < 3; i++ { // miss, then hits; wrapDepth settles
			lockUnlockDeep(t, a, m, 12)
		}
	}()
	<-done

	sites, stacks, fast := rt.pcCache.Len(), rt.interner.Len(), rt.Stats().FastGos
	done = make(chan struct{})
	go func() { // thread B's entry function: a different outermost frame
		defer close(done)
		b := rt.RegisterThread("b")
		defer b.Close()
		lockUnlockDeep(t, b, m, 12)
	}()
	<-done

	if got := rt.pcCache.Len(); got != sites {
		t.Errorf("thread B's first lock grew the call-site table %d -> %d; A's entry should have served it", sites, got)
	}
	if got := rt.interner.Len(); got != stacks {
		t.Errorf("thread B's first lock interned a new stack (%d -> %d)", stacks, got)
	}
	if got := rt.Stats().FastGos; got != fast+1 {
		t.Errorf("FastGos %d -> %d, want thread B's lock on the fast tier", fast, got)
	}
}

// TestThreadSize keeps per-thread cache state from creeping back: every
// goroutine-per-request workload allocates and zeroes one Thread per request.
func TestThreadSize(t *testing.T) {
	if size := unsafe.Sizeof(Thread{}); size > 160 {
		t.Fatalf("sizeof(Thread) = %d B, want <= 160", size)
	}
}
