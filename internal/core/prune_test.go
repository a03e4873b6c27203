// Tests for idle-thread pruning: goroutine-per-request churn must not
// grow the runtime's thread registry without bound, and the pin/retire
// protocol must be safe against concurrent implicit lookups.
package core

import (
	"sync"
	"testing"
	"time"
)

func newPruneRT(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	if cfg.Tau == 0 {
		cfg.Tau = 5 * time.Millisecond
	}
	if cfg.ThreadTTL == 0 {
		cfg.ThreadTTL = -1 // tests drive PruneIdleThreads deterministically
	}
	rt := MustNew(cfg)
	t.Cleanup(func() { rt.Stop() })
	return rt
}

// churn runs n goroutines that each do a few implicit lock operations and
// exit, like a goroutine-per-request server.
func churn(t *testing.T, rt *Runtime, m *Mutex, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if err := m.Lock(); err != nil {
					t.Error(err)
					return
				}
				if err := m.Unlock(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPruneIdleThreadsReclaimsImplicitRegistrations(t *testing.T) {
	rt := newPruneRT(t, Config{})
	m := rt.NewMutex()

	churn(t, rt, m, 50)
	if got := rt.NumThreads(); got < 50 {
		t.Fatalf("NumThreads = %d, want >= 50 before pruning", got)
	}

	// First call ages the threads one sweep, second call prunes them.
	rt.PruneIdleThreads()
	pruned := rt.PruneIdleThreads()
	if pruned < 50 {
		t.Fatalf("pruned = %d, want >= 50", pruned)
	}
	if got := rt.NumThreads(); got != 0 {
		t.Fatalf("NumThreads = %d after pruning, want 0", got)
	}

	// The registry still works afterwards: new implicit use re-registers.
	if err := m.Lock(); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlock(); err != nil {
		t.Fatal(err)
	}
	if got := rt.NumThreads(); got != 1 {
		t.Fatalf("NumThreads = %d after re-registration, want 1", got)
	}
}

// TestManyLiveThreads: the number of simultaneously live threads has no
// ceiling. 3000 explicit handles and 500 implicit goroutines are all
// registered at once, each completes a Lock/Unlock, and the registry
// drains to zero once they are closed / pruned.
func TestManyLiveThreads(t *testing.T) {
	const explicit, implicit = 3000, 500
	rt := newPruneRT(t, Config{})
	m := rt.NewMutex()

	ths := make([]*Thread, explicit)
	for i := range ths {
		ths[i] = rt.RegisterThread("")
		if err := m.LockT(ths[i]); err != nil {
			t.Fatal(err)
		}
		if err := m.UnlockT(ths[i]); err != nil {
			t.Fatal(err)
		}
	}

	var locked, exited sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < implicit; i++ {
		locked.Add(1)
		exited.Add(1)
		go func() {
			defer exited.Done()
			err := m.Lock()
			if err == nil {
				err = m.Unlock()
			}
			if err != nil {
				t.Error(err)
			}
			locked.Done()
			<-release // stay live until every goroutine is registered
		}()
	}
	locked.Wait()
	if got := rt.NumThreads(); got != explicit+implicit {
		t.Errorf("NumThreads = %d with everything live, want %d", got, explicit+implicit)
	}
	close(release)
	exited.Wait()

	for _, th := range ths {
		th.Close()
	}
	rt.PruneIdleThreads()
	rt.PruneIdleThreads()
	if got := rt.NumThreads(); got != 0 {
		t.Fatalf("NumThreads = %d after Close/prune, want 0", got)
	}
}

func TestPruneSkipsHoldersAndExplicitThreads(t *testing.T) {
	rt := newPruneRT(t, Config{})
	m := rt.NewMutex()

	// An implicit thread holding a lock across operations must survive.
	held := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := m.Lock(); err != nil {
			t.Error(err)
			return
		}
		close(held)
		<-release
		if err := m.Unlock(); err != nil {
			t.Error(err)
		}
	}()
	<-held

	// An explicit handle must survive regardless of idleness.
	th := rt.RegisterThread("explicit")
	defer th.Close()

	rt.PruneIdleThreads()
	rt.PruneIdleThreads()
	rt.PruneIdleThreads()
	if got := rt.NumThreads(); got != 2 {
		t.Fatalf("NumThreads = %d, want 2 (holder + explicit)", got)
	}

	// The holder's identity must still resolve so Unlock succeeds.
	close(release)
	<-done
	rt.PruneIdleThreads()
	rt.PruneIdleThreads()
	if got := rt.NumThreads(); got != 1 {
		t.Fatalf("NumThreads = %d, want 1 (explicit only)", got)
	}
}

// TestPruneWorksInModeOff: with instrumentation off, lock holds are
// still counted (NoteHold/NoteRelease) so the goroutine-per-request leak
// is closed in every mode.
func TestPruneWorksInModeOff(t *testing.T) {
	rt := newPruneRT(t, Config{Mode: ModeOff})
	m := rt.NewMutex()

	churn(t, rt, m, 30)
	if got := rt.NumThreads(); got < 30 {
		t.Fatalf("NumThreads = %d, want >= 30", got)
	}

	// A holder must survive pruning even without the avoidance cache.
	held := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := m.Lock(); err != nil {
			t.Error(err)
			return
		}
		close(held)
		<-release
		if err := m.Unlock(); err != nil {
			t.Error(err)
		}
	}()
	<-held

	rt.PruneIdleThreads()
	rt.PruneIdleThreads()
	if got := rt.NumThreads(); got != 1 {
		t.Fatalf("NumThreads = %d, want 1 (the holder)", got)
	}
	close(release)
	<-done
	rt.PruneIdleThreads()
	rt.PruneIdleThreads()
	if got := rt.NumThreads(); got != 0 {
		t.Fatalf("NumThreads = %d, want 0", got)
	}
}

// TestPrunedHandleDetected: a retired explicit-use handle fails fast with
// ErrThreadPruned instead of corrupting slot state.
func TestPrunedHandleDetected(t *testing.T) {
	rt := newPruneRT(t, Config{})
	m := rt.NewMutex()

	var stale *Thread
	done := make(chan struct{})
	go func() {
		defer close(done)
		stale = rt.CurrentThread()
		if err := m.LockT(stale); err != nil {
			t.Error(err)
			return
		}
		if err := m.UnlockT(stale); err != nil {
			t.Error(err)
		}
	}()
	<-done

	rt.PruneIdleThreads()
	rt.PruneIdleThreads()
	if err := m.LockT(stale); err != ErrThreadPruned {
		t.Fatalf("LockT on pruned handle = %v, want ErrThreadPruned", err)
	}
}

// TestPruneChurnUnderJanitor races a running janitor against heavy
// implicit churn; under -race this exercises the pin/retire Dekker
// protocol end to end.
func TestPruneChurnUnderJanitor(t *testing.T) {
	rt := newPruneRT(t, Config{ThreadTTL: 4 * time.Millisecond, Tau: 2 * time.Millisecond})
	m := rt.NewMutex()

	deadline := time.After(300 * time.Millisecond)
	for {
		select {
		case <-deadline:
			// Quiesce, then the registry must drain to (near) zero.
			waitUntil := time.Now().Add(2 * time.Second)
			for rt.NumThreads() > 0 && time.Now().Before(waitUntil) {
				rt.PruneIdleThreads()
				time.Sleep(2 * time.Millisecond)
			}
			if got := rt.NumThreads(); got > 0 {
				t.Fatalf("NumThreads = %d after quiesce, want 0", got)
			}
			return
		default:
		}
		churn(t, rt, m, 8)
	}
}
