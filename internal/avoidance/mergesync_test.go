// Differential tests for the fast tier under store-sync traffic: remote
// mutations arrive through History.Merge (the sync loop's pull path)
// rather than ReplaceAll, and the epoch protocol must give the same
// guarantee — once a merge returns, no stack matching an enabled merged
// signature takes the fast tier — including across the v2 tombstone
// transitions (remove, stale re-merge, resurrecting re-archive).
package avoidance

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dimmunix/internal/event"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// remoteWith builds the "remote snapshot" a sync pull would deliver: a
// fresh history holding one signature over the given stacks at the given
// revision.
func remoteWith(rev uint64, stacks ...stack.Stack) (*signature.History, *signature.Signature) {
	h := signature.NewHistory()
	sig := signature.New(signature.Deadlock, stacks, 2)
	sig.Rev = rev
	h.Add(sig)
	return h, sig
}

// TestFastPathMergeUnderRace hammers the fast tier from several
// goroutines while remote snapshots are concurrently merged in and the
// signature is removed again, asserting the sequential guarantee after
// every transition (same protocol as TestFastPathReloadUnderRace, but
// through the sync loop's Merge path and with tombstone semantics: a
// stale remote must NOT re-poison after a removal, a higher-revision
// remote must).
func TestFastPathMergeUnderRace(t *testing.T) {
	hist := signature.NewHistory()
	interner := stack.NewInterner()
	c := NewCache(Config{Mode: ModeFull}, interner, hist, &Stats{}, func(event.Event) {})

	danger := interner.Intern(stack.Stack{
		{Func: "lock", File: "t.go", Line: 1},
		{Func: "handler", File: "t.go", Line: 2},
	})
	safe := interner.Intern(stack.Stack{
		{Func: "lock2", File: "t.go", Line: 1},
		{Func: "other", File: "t.go", Line: 2},
	})
	peer := stack.Stack{{Func: "lock3", File: "t.go", Line: 9}}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := c.NewThread(int32(10+i), 10+i, "hammer")
			l := c.NewLock()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c.FastEligible(danger) {
					c.FastAcquiredImmediate(th, l, danger, false)
					c.FastRelease(th, l)
				}
				if c.FastEligible(safe) {
					c.FastAcquiredImmediate(th, l, safe, false)
					c.FastRelease(th, l)
				}
			}
		}(i)
	}

	var sigID string
	rev := uint64(1)
	for i := 0; i < 200; i++ {
		// Remote snapshot arrives (rev grows like a disable/enable churn
		// would make it): the dangerous stack must leave the fast tier
		// the moment Merge returns.
		remote, sig := remoteWith(rev, danger.S, peer)
		sigID = sig.ID
		if hist.Merge(remote) == 0 {
			t.Fatalf("iteration %d: merge applied nothing", i)
		}
		if c.ClassifySafe(danger) {
			t.Fatalf("iteration %d: fast tier kept a stack matching a freshly merged signature", i)
		}
		if !c.ClassifySafe(safe) {
			t.Fatalf("iteration %d: unrelated stack lost the fast tier", i)
		}

		// Local removal (tombstone): the stack is safe again…
		if !hist.Remove(sigID) {
			t.Fatalf("iteration %d: remove failed", i)
		}
		if !c.ClassifySafe(danger) {
			t.Fatalf("iteration %d: removal not observed by the fast tier", i)
		}

		// …and a STALE remote (revision not above the tombstone's) must
		// not re-poison it — the resurrection bug the tombstones fix.
		staleRemote, _ := remoteWith(rev, danger.S, peer)
		hist.Merge(staleRemote)
		if !c.ClassifySafe(danger) {
			t.Fatalf("iteration %d: stale remote resurrected a removed signature", i)
		}

		// Next round's remote carries a higher revision than the
		// tombstone, so it re-poisons (a legitimate re-archive).
		rev += 2
	}
	close(stop)
	wg.Wait()
}

// TestFastPathMergeRandomizedNeverBypasses fuzzes sequences of merge /
// remove / disable transitions over a shared frame pool and checks the
// never-bypass invariant against the whole enabled history after each
// step — the differential property for the sync-driven mutation surface.
func TestFastPathMergeRandomizedNeverBypasses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := make([]stack.Frame, 10)
	for i := range pool {
		pool[i] = stack.Frame{Func: fmt.Sprintf("fn%d", i), File: "pool.go", Line: i + 1}
	}
	randStack := func(depth int) stack.Stack {
		s := make(stack.Stack, depth)
		for i := range s {
			s[i] = pool[rng.Intn(len(pool))]
		}
		return s
	}

	for round := 0; round < 30; round++ {
		e := newEnv(Config{Mode: ModeFull})
		var probes []*stack.Interned
		for i := 0; i < 20; i++ {
			probes = append(probes, e.in.Intern(randStack(1+rng.Intn(5))))
		}
		var ids []string
		for step := 0; step < 40; step++ {
			switch rng.Intn(4) {
			case 0, 1: // a sync pull merges a remote snapshot in
				remote := signature.NewHistory()
				for i := 0; i < 1+rng.Intn(2); i++ {
					sig := signature.New(signature.Deadlock,
						[]stack.Stack{randStack(1 + rng.Intn(4)), randStack(1 + rng.Intn(4))},
						1+rng.Intn(4))
					sig.Rev = uint64(1 + rng.Intn(6))
					sig.Disabled = rng.Intn(5) == 0
					remote.Add(sig)
					ids = append(ids, sig.ID)
				}
				e.hist.Merge(remote)
			case 2: // a removal (local or propagated)
				if len(ids) > 0 {
					e.hist.Remove(ids[rng.Intn(len(ids))])
				}
			case 3: // a disabled-flip
				if len(ids) > 0 {
					e.hist.SetDisabled(ids[rng.Intn(len(ids))], rng.Intn(2) == 0)
				}
			}
			assertNeverBypasses(t, e.c, e.hist, probes, 6)
		}
	}
}
