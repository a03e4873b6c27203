// Tests for implicit goroutine identity: it is the goroutine ID, never
// the recyclable g, and a runtime refuses to start without one.
package core

import (
	"strings"
	"testing"

	"dimmunix/internal/gid"
)

// TestExitedHolderIdentityNotInherited: Go lets a goroutine exit holding
// a lock that another will release. Later goroutines run on the exited
// one's recycled g, and none of them may resolve to its Thread — else it
// would inherit the hold in the RAG — while the hand-off Unlock still
// releases the lock.
func TestExitedHolderIdentityNotInherited(t *testing.T) {
	rt := newPruneRT(t, Config{})
	m := rt.NewMutex()
	// Identify every goroutine below the steady-state way: past
	// verification, on the armed read where the GOARCH has one.
	for i := 0; i < 1000 && gid.Mode() == "verifying"; i++ {
		gid.Current()
	}

	held := make(chan *Thread)
	go func() {
		if err := m.Lock(); err != nil {
			t.Error(err)
			close(held)
			return
		}
		held <- rt.CurrentThread()
	}()
	holder := <-held
	if holder == nil {
		t.FailNow()
	}
	if m.Holder() != holder.ID() {
		t.Fatalf("Holder = %d, want the exited goroutine's thread %d", m.Holder(), holder.ID())
	}

	for i := range 1000 {
		got := make(chan *Thread)
		go func() { got <- rt.CurrentThread() }()
		if th := <-got; th == holder {
			t.Fatalf("goroutine %d resolved to the exited holder's thread %d", i, holder.ID())
		}
	}
	if err := m.UnlockHandoff(); err != nil {
		t.Fatalf("hand-off Unlock: %v", err)
	}
	if m.Holder() != 0 {
		t.Fatalf("Holder = %d after the hand-off Unlock, want free", m.Holder())
	}
}

// TestNewRefusesUnreadableIdentity: with no goroutine ID every goroutine
// would key the same thread, so New fails, naming the cause.
func TestNewRefusesUnreadableIdentity(t *testing.T) {
	restore := gid.ForceUnreadable()
	rt, err := New(Config{})
	restore()
	if err == nil {
		rt.Stop()
		t.Fatal("New succeeded without goroutine identity")
	}
	if !strings.Contains(err.Error(), "goroutine identity") {
		t.Fatalf("New error %q does not name goroutine identity", err)
	}
	rt = MustNew(Config{ThreadTTL: -1})
	defer rt.Stop()
	if id := rt.Stats().Identity; id != gid.Mode() || id == "" {
		t.Fatalf("Stats().Identity = %q, gid.Mode() = %q", id, gid.Mode())
	}
}
