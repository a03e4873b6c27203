package avoidance

import (
	"fmt"
	"reflect"
	"testing"

	"dimmunix/internal/event"
)

// published flushes every thread's buffer and returns the bookkeeping
// stream the monitor would see, one "kind:lock" string per record.
func (e *env) published() []string {
	e.c.FlushBuffers()
	var out []string
	for _, ev := range e.events {
		if ev.Kind != event.Batch {
			out = append(out, fmt.Sprintf("%v:%d", ev.Kind, ev.LID))
			continue
		}
		for _, r := range *ev.Recs {
			out = append(out, fmt.Sprintf("%v:%d", r.Kind, r.LID))
		}
	}
	e.events = nil
	return out
}

// TestLonelyFastPairElided: an uncontended fast acquire/release with no
// other hold live reaches the monitor as nothing, and the counters still
// see both halves.
func TestLonelyFastPairElided(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	th := e.c.NewThread(1, 0, "t1")
	l := e.c.NewLock()
	e.c.FastAcquiredImmediate(th, l, e.stk("lock", "main"), false)
	e.c.FastRelease(th, l)
	if got := e.published(); len(got) != 0 {
		t.Fatalf("lonely pair published %v, want nothing", got)
	}
	if s := e.c.Stats(); s.Acquired.Load() != 1 || s.Releases.Load() != 1 {
		t.Fatalf("acquired=%d releases=%d, want 1 and 1", s.Acquired.Load(), s.Releases.Load())
	}
}

// TestNestedFastPairEmitted: a pair taken under another hold is
// lock-nesting evidence, so both its records reach the monitor.
func TestNestedFastPairEmitted(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	th := e.c.NewThread(1, 0, "t1")
	outer, inner := e.c.NewLock(), e.c.NewLock()
	e.c.FastAcquiredImmediate(th, outer, e.stk("lock", "outer"), false)
	e.c.FastAcquiredImmediate(th, inner, e.stk("lock", "inner"), false)
	e.c.FastRelease(th, inner)
	want := []string{
		fmt.Sprintf("acquired:%d", outer.ID),
		fmt.Sprintf("acquired:%d", inner.ID),
		fmt.Sprintf("release:%d", inner.ID),
	}
	if got := e.published(); !reflect.DeepEqual(got, want) {
		t.Fatalf("nested pair published %v, want %v", got, want)
	}
}

// TestReleaseAfterStealEmitted: once the monitor's per-pass flush has
// published a hold's Acquired record, its release is owed to the monitor
// even when it is lonely.
func TestReleaseAfterStealEmitted(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	th := e.c.NewThread(1, 0, "t1")
	l := e.c.NewLock()
	e.c.FastAcquiredImmediate(th, l, e.stk("lock", "main"), false)
	acq := fmt.Sprintf("acquired:%d", l.ID)
	if got := e.published(); !reflect.DeepEqual(got, []string{acq}) {
		t.Fatalf("steal published %v, want [%s]", got, acq)
	}
	e.c.FastRelease(th, l)
	rel := fmt.Sprintf("release:%d", l.ID)
	if got := e.published(); !reflect.DeepEqual(got, []string{rel}) {
		t.Fatalf("release after steal published %v, want [%s]", got, rel)
	}
}

// TestInstrumentModeProgramOrder: in ModeInstrument a thread's records
// reach the queue in program order. Request and Go ride the thread's
// batch buffer, so Acquired and Release must too: emitted directly, they
// would reach the monitor before the Go that precedes them.
func TestInstrumentModeProgramOrder(t *testing.T) {
	e := newEnv(Config{Mode: ModeInstrument})
	t1 := e.c.NewThread(1, 1, "T1")
	l := e.c.NewLock()
	e.c.Request(t1, l, e.stk("lock", "f"))
	e.c.Acquired(t1, l)
	e.c.Release(t1, l)
	got := e.published()
	want := []string{
		fmt.Sprintf("%v:%d", event.Request, l.ID),
		fmt.Sprintf("%v:%d", event.Go, l.ID),
		fmt.Sprintf("%v:%d", event.Acquired, l.ID),
		fmt.Sprintf("%v:%d", event.Release, l.ID),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("T1's records reached the queue as %v, want %v", got, want)
	}
}
