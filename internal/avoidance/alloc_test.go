package avoidance

import (
	"sync"
	"testing"

	"dimmunix/internal/event"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// TestReleaseWithWaiterAllocsNothing: releasing a lock a yielded thread
// waits on snapshots the yielders into the releasing thread's scratch,
// so once the scratch has grown, a Request/Acquired/Release round on a
// cause lock allocates nothing (amortized: the event buffer takes a
// fresh carrier every event.BatchSize records, since nothing drains
// them here).
func TestReleaseWithWaiterAllocsNothing(t *testing.T) {
	e, tl, _, _, dec := setupPaperExample(t, Config{Mode: ModeFull})
	if dec.Go {
		t.Fatal("precondition: Tl yields")
	}
	tk, lockB, s23 := dec.Causes[0].T, dec.Causes[0].L, dec.Causes[0].St
	round := func() {
		if dec := e.c.Request(tk, lockB, s23); !dec.Go {
			t.Fatal("Tk's own request must GO")
		}
		e.c.Acquired(tk, lockB)
		e.c.Release(tk, lockB)
	}
	e.c.Release(tk, lockB)
	round()
	e.events = make([]event.Event, 0, 4096) // the sink must not allocate
	if avg := testing.AllocsPerRun(1000, round); avg >= 1 {
		t.Fatalf("a release with a registered waiter allocates %.3f allocs/op (want < 1)", avg)
	}
	if lockB.waiters[tl.ID] != tl {
		t.Fatal("Tl left the waiters of its cause lock: the rounds released nothing it waits on")
	}
	select {
	case <-tl.Wake:
	default:
		t.Fatal("the releases did not wake Tl")
	}
}

// TestHandoffReleasesShareWakeScratch: a hand-off release runs on behalf
// of a thread while the thread's own goroutine acquires and releases
// other locks. Both snapshot yielders into the thread's wake scratch;
// each must wake exactly its own lock's yielders. Run under -race.
func TestHandoffReleasesShareWakeScratch(t *testing.T) {
	in := stack.NewInterner()
	c := NewCache(Config{Mode: ModeFull}, in, signature.NewHistory(), &Stats{}, func(event.Event) {})
	owner := c.NewThread(1, 0, "owner")
	st := in.Intern(stack.Stack{{Func: "app.lock", File: "app.go", Line: 1}})
	waitOn := func(l *LockState, id int32) *ThreadState {
		w := c.NewThread(id, 0, "yielder")
		c.WithGuard(func() { l.waiters = map[int32]*ThreadState{id: w} })
		return w
	}
	const n = 256
	handed := make([]*LockState, n)
	handedW := make([]*ThreadState, n)
	for i := range handed {
		handed[i] = c.NewLock()
		handedW[i] = waitOn(handed[i], int32(100+i))
		if dec := c.Request(owner, handed[i], st); !dec.Go {
			t.Fatal("empty history must GO")
		}
		c.Acquired(owner, handed[i])
	}
	own := c.NewLock()
	ownW := waitOn(own, 99)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the hand-off goroutine
		defer wg.Done()
		for _, l := range handed {
			c.Release(owner, l)
		}
	}()
	woke := 0
	go func() { // the owner's goroutine
		defer wg.Done()
		for range n {
			c.Request(owner, own, st)
			c.Acquired(owner, own)
			c.Release(owner, own)
			select {
			case <-ownW.Wake:
				woke++
			default:
			}
		}
	}()
	wg.Wait()
	if woke == 0 {
		t.Fatal("the owner's releases never woke its lock's yielder")
	}
	for i, w := range handedW {
		select {
		case <-w.Wake:
		default:
			t.Fatalf("the hand-off release of lock %d did not wake its yielder", i)
		}
	}
}
