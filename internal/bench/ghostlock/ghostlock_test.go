package ghostlock

import (
	"sync"
	"testing"
	"time"
)

func TestAddDeadlockDedup(t *testing.T) {
	m := NewManager()
	if !m.AddDeadlock([]uint64{1, 2}) {
		t.Fatal("first add must create a ghost")
	}
	if m.AddDeadlock([]uint64{2, 1}) {
		t.Fatal("same set must be deduped")
	}
	if !m.AddDeadlock([]uint64{2, 3}) {
		t.Fatal("new set must create a ghost")
	}
	if m.NumGhosts() != 2 {
		t.Errorf("ghosts = %d", m.NumGhosts())
	}
}

func TestUncoveredLockIsFree(t *testing.T) {
	m := NewManager()
	m.BeforeLock(1, 99)
	m.AfterUnlock(1, 99) // no-ops, no panic
}

func TestGhostPreventsInversionDeadlock(t *testing.T) {
	// Two threads locking {A, B} in opposite orders, with a ghost over
	// {A, B}: the ghost serializes the whole critical region, so this
	// must terminate.
	m := NewManager()
	m.AddDeadlock([]uint64{1, 2})
	var a, b sync.Mutex

	lockPair := func(tid int64, first, second *sync.Mutex, fid, sid uint64) {
		m.BeforeLock(tid, fid)
		first.Lock()
		m.BeforeLock(tid, sid)
		second.Lock()
		second.Unlock()
		m.AfterUnlock(tid, sid)
		first.Unlock()
		m.AfterUnlock(tid, fid)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tid := int64(i + 1)
			for j := 0; j < 500; j++ {
				if i%2 == 0 {
					lockPair(tid, &a, &b, 1, 2)
				} else {
					lockPair(tid, &b, &a, 2, 1)
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ghost-protected inversion deadlocked")
	}
	st := m.Stats()
	if st.Acquires == 0 {
		t.Error("ghost never acquired")
	}
}

func TestGhostReentrancyWithinSet(t *testing.T) {
	// A thread locking both members must acquire the ghost once and
	// release it only after releasing both.
	m := NewManager()
	m.AddDeadlock([]uint64{1, 2})
	m.BeforeLock(7, 1)
	m.BeforeLock(7, 2) // re-enter, no self-deadlock
	m.AfterUnlock(7, 2)
	// Ghost still held: another thread must block; verify via TryLock
	// semantics exposed through contention counting.
	released := make(chan struct{})
	go func() {
		m.BeforeLock(8, 1) // blocks until thread 7 releases lock 1
		m.AfterUnlock(8, 1)
		close(released)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-released:
		t.Fatal("ghost released too early")
	default:
	}
	m.AfterUnlock(7, 1)
	<-released
}

func TestStats(t *testing.T) {
	m := NewManager()
	m.AddDeadlock([]uint64{1, 2})
	m.BeforeLock(1, 1)
	m.AfterUnlock(1, 1)
	st := m.Stats()
	if st.Ghosts != 1 || st.Acquires != 1 {
		t.Errorf("stats = %+v", st)
	}
}
