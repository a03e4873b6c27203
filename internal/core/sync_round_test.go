// Tests for what one sync round moves: a round whose pull covers the
// local history pushes nothing (and neither does the Stop after it), a
// push that was the only thing to move the daemon's version is not
// pulled again, and every way of holding something the store lacks
// still pushes. A seeded random schedule over all three backends checks
// that skipping those transfers never costs convergence.
package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dimmunix/internal/histstore"
	"dimmunix/internal/signature"
	"dimmunix/internal/sigport"
	"dimmunix/internal/stack"
)

// roundDaemon is an httptest history daemon with the seams the round
// tests need: one-shot hooks that run after a probe or a pull has been
// served (the window between a round's pull and its push), a switch that
// strips "prev" from push replies (a daemon that predates the field),
// and a restart (a fresh Server: new epoch, sequence back at 1).
type roundDaemon struct {
	t  *testing.T
	ts *httptest.Server

	mu         sync.Mutex
	srv        *histstore.Server
	afterProbe func()
	afterPull  func()
	stripPrev  bool
}

func newRoundDaemon(t *testing.T) *roundDaemon {
	t.Helper()
	d := &roundDaemon{t: t}
	d.restart()
	d.ts = httptest.NewServer(http.HandlerFunc(d.serve))
	t.Cleanup(d.ts.Close)
	return d
}

func (d *roundDaemon) serve(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	h := d.srv.Handler()
	strip := d.stripPrev && r.Method == http.MethodPost
	var hook func()
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/v1/version":
		hook, d.afterProbe = d.afterProbe, nil
	case r.Method == http.MethodGet && r.URL.Path == "/v1/history":
		hook, d.afterPull = d.afterPull, nil
	}
	d.mu.Unlock()

	if !strip {
		h.ServeHTTP(w, r)
	} else {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var reply map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			d.t.Errorf("push reply: %v", err)
		}
		delete(reply, "prev")
		w.WriteHeader(rec.Code)
		json.NewEncoder(w).Encode(reply)
	}
	// The client sees the end of this response only once serve returns,
	// so the hook's effect lands before the round's next request.
	if hook != nil {
		hook()
	}
}

// restart replaces the daemon with an empty new incarnation.
func (d *roundDaemon) restart() {
	d.t.Helper()
	srv, err := histstore.NewServer(nil)
	if err != nil {
		d.t.Fatal(err)
	}
	d.mu.Lock()
	d.srv = srv
	d.mu.Unlock()
}

func (d *roundDaemon) server() *histstore.Server {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.srv
}

func (d *roundDaemon) stats() histstore.ServerStatsSnapshot { return d.server().StatsSnapshot() }

// peerPush joins h into the daemon the way another fleet member would.
func (d *roundDaemon) peerPush(h *signature.History) {
	d.t.Helper()
	peer := histstore.NewHTTPStore(d.ts.URL)
	defer peer.Close()
	if _, err := peer.Push(context.Background(), h); err != nil {
		d.t.Fatal(err)
	}
}

// runtime starts a manually-synced runtime on the daemon.
func (d *roundDaemon) runtime(mod func(*Config)) *Runtime {
	d.t.Helper()
	cfg := testConfig()
	cfg.HistoryStore = histstore.NewHTTPStore(d.ts.URL)
	cfg.SyncInterval = -1
	if mod != nil {
		mod(&cfg)
	}
	rt := MustNew(cfg)
	d.t.Cleanup(func() { rt.Stop() })
	return rt
}

func roundSig(seed uint64) *signature.Signature {
	return signature.New(signature.Deadlock,
		[]stack.Stack{stack.Synthetic(seed, 3), stack.Synthetic(seed+500, 3)}, 3)
}

func histOf(sigs ...*signature.Signature) *signature.History {
	h := signature.NewHistory()
	for _, s := range sigs {
		h.Add(s)
	}
	return h
}

func syncNow(t *testing.T, rt *Runtime) {
	t.Helper()
	if err := rt.SyncNow(context.Background()); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
}

// TestCoveredRoundDoesNotPush: a round that pulled everything the
// runtime holds — whether or not the pull taught it something — sends
// nothing back, and the Stop after it has nothing to publish either.
func TestCoveredRoundDoesNotPush(t *testing.T) {
	d := newRoundDaemon(t)
	d.peerPush(histOf(roundSig(1)))
	rt := d.runtime(nil) // loads signature 1 at startup
	pushes := d.stats().PushesServed

	syncNow(t, rt) // first round: pulls, learns nothing, holds nothing more
	d.peerPush(histOf(roundSig(2)))
	pushes++
	syncNow(t, rt) // pulls signature 2, still holds nothing more
	if rt.History().Len() != 2 {
		t.Fatalf("runtime holds %d signatures, want 2", rt.History().Len())
	}
	c := rt.MonitorCounters()
	if got := c.SyncCovered.Load(); got != 2 {
		t.Fatalf("SyncCovered = %d, want 2", got)
	}
	if got := rt.Stats().SyncCovered; got != 2 {
		t.Fatalf("Stats().SyncCovered = %d, want 2", got)
	}
	if got := c.SyncPushes.Load(); got != 0 {
		t.Fatalf("SyncPushes = %d, want 0", got)
	}
	if got := d.stats().PushesServed; got != pushes {
		t.Fatalf("covered rounds pushed: daemon served %d pushes, want %d", got, pushes)
	}
	syncNow(t, rt) // probe unchanged: no pull, and still nothing to push
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := d.stats().PushesServed; got != pushes {
		t.Fatalf("Stop after covered rounds pushed: daemon served %d pushes, want %d", got, pushes)
	}
}

// TestUncoveredRoundPushes: each way the local history can hold
// something the pulled snapshot lacks under the revision join makes the
// round push, and the daemon ends up holding it.
func TestUncoveredRoundPushes(t *testing.T) {
	base := roundSig(10)
	cases := []struct {
		name string
		// seed is what the daemon holds when the runtime starts.
		seed func() *signature.History
		// local mutates the started runtime; peer, when set, is pushed to
		// the daemon after that (state the runtime has not seen).
		local func(rt *Runtime)
		peer  func() *signature.History
		// held checks the daemon's history after the round.
		held func(h *signature.History) error
	}{
		{
			name:  "local-only entry",
			seed:  func() *signature.History { return histOf(roundSig(10)) },
			local: func(rt *Runtime) { rt.History().Add(roundSig(11)) },
			held: func(h *signature.History) error {
				if h.Get(roundSig(11).ID) == nil {
					return fmt.Errorf("the local-only signature did not reach the daemon")
				}
				return nil
			},
		},
		{
			name:  "local tombstone",
			seed:  func() *signature.History { return histOf(roundSig(10)) },
			local: func(rt *Runtime) { rt.History().Remove(base.ID) },
			held: func(h *signature.History) error {
				if h.Get(base.ID) != nil || len(h.Tombstones()) != 1 {
					return fmt.Errorf("the removal did not reach the daemon")
				}
				return nil
			},
		},
		{
			name: "higher revision",
			seed: func() *signature.History { return histOf(roundSig(10)) },
			local: func(rt *Runtime) {
				rt.History().SetDisabled(base.ID, true)
				rt.History().SetDisabled(base.ID, false) // same state as the store's, two revisions on
			},
			held: func(h *signature.History) error {
				if s := h.Get(base.ID); s == nil || s.Rev != 3 || s.Disabled {
					return fmt.Errorf("the daemon's entry is %+v, want revision 3, enabled", s)
				}
				return nil
			},
		},
		{
			name: "disabled tie-break",
			seed: func() *signature.History { return signature.NewHistory() },
			local: func(rt *Runtime) {
				rt.History().Add(roundSig(10))
				rt.History().SetDisabled(base.ID, true) // revision 2, disabled
			},
			peer: func() *signature.History {
				s := roundSig(10)
				s.Rev = 2 // the same revision, enabled
				return histOf(s)
			},
			held: func(h *signature.History) error {
				if s := h.Get(base.ID); s == nil || s.Rev != 2 || !s.Disabled {
					return fmt.Errorf("the daemon's entry is %+v, want revision 2, disabled", s)
				}
				return nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newRoundDaemon(t)
			d.peerPush(tc.seed())
			rt := d.runtime(nil)
			tc.local(rt)
			if tc.peer != nil {
				d.peerPush(tc.peer())
			}
			before := d.stats()
			syncNow(t, rt)
			after := d.stats()
			if after.PullsServed != before.PullsServed+1 {
				t.Fatalf("the round served %d pulls, want 1", after.PullsServed-before.PullsServed)
			}
			if after.PushesServed != before.PushesServed+1 || after.PushesChanged != before.PushesChanged+1 {
				t.Fatalf("the round served %d pushes (%d changing), want 1 (1)",
					after.PushesServed-before.PushesServed, after.PushesChanged-before.PushesChanged)
			}
			if got := rt.MonitorCounters().SyncCovered.Load(); got != 0 {
				t.Fatalf("SyncCovered = %d on a round that had to push", got)
			}
			if err := tc.held(d.server().History()); err != nil {
				t.Fatal(err)
			}

			// Once the store holds it, a later pull covers the runtime.
			d.peerPush(histOf(roundSig(99)))
			before = d.stats()
			syncNow(t, rt)
			if after := d.stats(); after.PullsServed != before.PullsServed+1 || after.PushesServed != before.PushesServed {
				t.Fatalf("the following round served %d pulls and %d pushes, want 1 and 0",
					after.PullsServed-before.PullsServed, after.PushesServed-before.PushesServed)
			}
			if rt.History().Get(roundSig(99).ID) == nil {
				t.Fatal("the following round did not learn the peer's signature")
			}
		})
	}
}

// TestPortedEntriesAreNotCovered: what §8 porting makes of a pulled
// snapshot is local news — the store as it was returned lacks the ported
// entries — so the round pushes them, once; after that the store holds
// them and later pulls cover the runtime again.
func TestPortedEntriesAreNotCovered(t *testing.T) {
	base := roundSig(10)
	oldFunc := base.Stacks[0][0].Func
	ported := func(h *signature.History) (n int) {
		for _, s := range h.Snapshot() {
			for _, st := range s.Stacks {
				if st[0].Func == "ported.fn" {
					n++
					break
				}
			}
		}
		return n
	}
	d := newRoundDaemon(t)
	seed := histOf(base)
	seed.SetFingerprint("build-old")
	d.peerPush(seed)
	rt := d.runtime(func(c *Config) {
		c.BuildFingerprint = "build-new"
		c.SyncPortRules = []sigport.Rule{{Kind: "rename", Func: oldFunc, To: "ported.fn"}}
	})

	// The startup load ported the seed; the first round pushes the result.
	pushes := d.stats().PushesServed
	syncNow(t, rt)
	if got := d.stats().PushesServed; got != pushes+1 || ported(d.server().History()) != 1 {
		t.Fatalf("first round: %d pushes, daemon holds %d ported signatures, want 1 and 1",
			got-pushes, ported(d.server().History()))
	}

	// An old-build peer archives another signature through the renamed
	// function: the runtime holds nothing the store lacks until the pull
	// is ported, and then it does.
	d.peerPush(histOf(signature.New(signature.Deadlock,
		[]stack.Stack{base.Stacks[0], stack.Synthetic(777, 3)}, 3)))
	pushes = d.stats().PushesServed
	syncNow(t, rt)
	if got := d.stats().PushesServed; got != pushes+1 || ported(d.server().History()) != 2 {
		t.Fatalf("round after the peer's archive: %d pushes, daemon holds %d ported signatures, want 1 and 2",
			got-pushes, ported(d.server().History()))
	}

	// Porting the same snapshot again yields nothing new: covered.
	d.peerPush(histOf(roundSig(99)))
	pushes = d.stats().PushesServed
	syncNow(t, rt)
	if got := d.stats().PushesServed; got != pushes {
		t.Fatalf("a pull whose ported form the store already holds pushed %d times", got-pushes)
	}
	if c := rt.MonitorCounters(); c.SyncPorted.Load() != 3 || c.SyncCovered.Load() != 1 {
		t.Fatalf("SyncPorted = %d, SyncCovered = %d, want 3 and 1", c.SyncPorted.Load(), c.SyncCovered.Load())
	}
}

// TestCleanPushIsAdopted: a push that took the daemon from the version
// this round observed to the next is not pulled back — the next round
// is a probe — and that holds for a round that pushed without pulling.
func TestCleanPushIsAdopted(t *testing.T) {
	d := newRoundDaemon(t)
	rt := d.runtime(nil)

	rt.History().Add(roundSig(1))
	syncNow(t, rt) // pull + push
	st := d.stats()
	if st.PullsServed != 2 || st.PushesServed != 1 { // startup load + the round's pull
		t.Fatalf("first round: %d pulls, %d pushes served, want 2 and 1", st.PullsServed, st.PushesServed)
	}
	syncNow(t, rt)
	rt.History().Add(roundSig(2))
	syncNow(t, rt) // probe + push, adopted again
	syncNow(t, rt)
	st = d.stats()
	if st.PullsServed != 2 {
		t.Fatalf("the runtime pulled its own pushes back: %d pulls served, want 2", st.PullsServed)
	}
	if st.PushesServed != 2 || st.ProbesServed != 4 {
		t.Fatalf("%d pushes, %d probes served, want 2 and 4", st.PushesServed, st.ProbesServed)
	}

	// Adoption must not hide a peer: the daemon moves, the probe differs.
	d.peerPush(histOf(roundSig(3)))
	syncNow(t, rt)
	if rt.History().Get(roundSig(3).ID) == nil {
		t.Fatal("a peer's push after an adopted version was not pulled")
	}
}

// TestPeerPushBetweenPullAndPushDefeatsAdoption: the daemon's version
// after the round's push covers a peer's write the round never pulled,
// so the round must not adopt it — prev differs from what it observed —
// and the next round pulls the peer's signature.
func TestPeerPushBetweenPullAndPushDefeatsAdoption(t *testing.T) {
	for _, pulls := range []bool{true, false} {
		name := "round pulls"
		if !pulls {
			name = "round only probes"
		}
		t.Run(name, func(t *testing.T) {
			d := newRoundDaemon(t)
			rt := d.runtime(nil)
			peer := func() { d.peerPush(histOf(roundSig(7))) }
			if pulls {
				d.mu.Lock()
				d.afterPull = peer
				d.mu.Unlock()
			} else {
				rt.History().Add(roundSig(1))
				syncNow(t, rt) // adopted: the next round only probes
				d.mu.Lock()
				d.afterProbe = peer
				d.mu.Unlock()
			}
			rt.History().Add(roundSig(2))
			syncNow(t, rt)
			if rt.History().Get(roundSig(7).ID) != nil {
				t.Fatal("the peer's push landed before the round's pull; the test shows nothing")
			}
			if d.server().History().Get(roundSig(2).ID) == nil {
				t.Fatal("the round's push did not reach the daemon")
			}
			pullsBefore := d.stats().PullsServed
			syncNow(t, rt)
			if got := d.stats().PullsServed; got != pullsBefore+1 {
				t.Fatalf("the round after an unclean push served %d pulls, want 1", got-pullsBefore)
			}
			if rt.History().Get(roundSig(7).ID) == nil {
				t.Fatal("the peer's signature was skipped: the runtime adopted a version it never pulled")
			}
		})
	}
}

// TestOldOrRestartedDaemonNeverAdopts: a reply without "prev" (an older
// daemon) and a daemon that restarted between the probe and the push
// (new epoch) give the round no evidence its push was clean; it pulls
// again next round, as before, and converges.
func TestOldOrRestartedDaemonNeverAdopts(t *testing.T) {
	t.Run("no prev in the reply", func(t *testing.T) {
		d := newRoundDaemon(t)
		d.mu.Lock()
		d.stripPrev = true
		d.mu.Unlock()
		rt := d.runtime(nil)
		rt.History().Add(roundSig(1))
		syncNow(t, rt)
		pulls := d.stats().PullsServed
		syncNow(t, rt)
		if got := d.stats().PullsServed; got != pulls+1 {
			t.Fatalf("the round after an unattested push served %d pulls, want 1", got-pulls)
		}
		d.peerPush(histOf(roundSig(2)))
		syncNow(t, rt)
		if !slices.Equal(rt.History().SortedIDs(), d.server().History().SortedIDs()) {
			t.Fatal("runtime and daemon did not converge")
		}
	})
	t.Run("restart between probe and push", func(t *testing.T) {
		d := newRoundDaemon(t)
		rt := d.runtime(nil)
		rt.History().Add(roundSig(1))
		syncNow(t, rt) // adopted: the next round only probes
		d.mu.Lock()
		d.afterProbe = d.restart
		d.mu.Unlock()
		rt.History().Add(roundSig(2))
		syncNow(t, rt) // probe (old daemon) → restart → push (new daemon)
		if got := d.stats(); got.PushesServed != 1 || got.PullsServed != 0 {
			t.Fatalf("the new daemon served %d pushes and %d pulls, want 1 and 0", got.PushesServed, got.PullsServed)
		}
		d.peerPush(histOf(roundSig(3)))
		syncNow(t, rt)
		if got := d.stats().PullsServed; got != 1 {
			t.Fatalf("the round after the restart served %d pulls, want 1", got)
		}
		if !slices.Equal(rt.History().SortedIDs(), d.server().History().SortedIDs()) || rt.History().Len() != 3 {
			t.Fatalf("runtime (%d signatures) and the restarted daemon (%d) did not converge on 3",
				rt.History().Len(), d.server().History().Len())
		}
	})
}

// fleetState is what convergence compares: live IDs with their revision
// and disabled state, and tombstones with their revision.
func fleetState(h *signature.History) string {
	var b bytes.Buffer
	for _, id := range h.SortedIDs() {
		s := h.Get(id)
		fmt.Fprintf(&b, "%s@%d disabled=%v\n", id, s.Rev, s.Disabled)
	}
	for _, tomb := range h.Tombstones() {
		fmt.Fprintf(&b, "tomb %s@%d\n", tomb.ID, tomb.Rev)
	}
	return b.String()
}

// TestRandomScheduleConverges: three runtimes mutate their histories at
// random (Add, Remove, SetDisabled over a small pool of signatures, so
// they collide) and sync in random order; after a few closing passes
// all three hold identical entries, revisions, disabled states and
// tombstones — on every backend. A round that wrongly took itself for
// covered, or adopted a version it had not pulled, would strand a
// mutation on one runtime.
func TestRandomScheduleConverges(t *testing.T) {
	// Each backend returns an opener of handles on one shared store.
	backends := map[string]func(t *testing.T) func() histstore.Store{
		"http": func(t *testing.T) func() histstore.Store {
			d := newRoundDaemon(t)
			return func() histstore.Store { return histstore.NewHTTPStore(d.ts.URL) }
		},
		"dir": func(t *testing.T) func() histstore.Store {
			dir := t.TempDir()
			return func() histstore.Store {
				st, err := histstore.NewDirStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
		},
		"file": func(t *testing.T) func() histstore.Store {
			path := filepath.Join(t.TempDir(), "shared.json")
			return func() histstore.Store { return histstore.NewFileStore(path) }
		},
	}
	for name, backend := range backends {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				open := backend(t)
				rng := rand.New(rand.NewSource(seed))
				var rts []*Runtime
				for i := 0; i < 3; i++ {
					cfg := testConfig()
					cfg.HistoryStore = open()
					cfg.SyncInterval = -1
					rt := MustNew(cfg)
					defer rt.Stop()
					rts = append(rts, rt)
				}
				const pool = 6
				for step := 0; step < 80; step++ {
					rt := rts[rng.Intn(len(rts))]
					id := roundSig(uint64(rng.Intn(pool))).ID
					switch op := rng.Intn(10); {
					case op < 3:
						rt.History().Add(roundSig(uint64(rng.Intn(pool))))
					case op < 4:
						rt.History().Remove(id)
					case op < 6:
						rt.History().SetDisabled(id, rng.Intn(2) == 0)
					default:
						syncNow(t, rt)
					}
				}
				// Everyone publishes, then everyone learns what the last
				// publisher of the first pass added.
				for pass := 0; pass < 3; pass++ {
					for _, rt := range rts {
						syncNow(t, rt)
					}
				}
				want := fleetState(rts[0].History())
				for i, rt := range rts[1:] {
					if got := fleetState(rt.History()); got != want {
						t.Fatalf("runtime %d diverged from runtime 0:\n%s\nvs\n%s", i+1, got, want)
					}
				}
			})
		}
	}
}

// TestConcurrentMutationIsNeverStranded: the history is archived into
// and flipped (entries the rounds pulled included) while rounds run and a
// peer keeps the daemon's version moving, so rounds pull, find
// themselves covered or not, push and adopt with mutations landing at
// every point in between. Once everything is quiet, one round leaves the
// daemon holding exactly what the runtime holds.
func TestConcurrentMutationIsNeverStranded(t *testing.T) {
	d := newRoundDaemon(t)
	rt := d.runtime(nil)
	const rounds, pool = 60, 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rt.History().Add(roundSig(uint64(2000 + i%pool)))
			held := rt.History().SortedIDs()
			rt.History().SetDisabled(held[i%len(held)], i%4 < 2)
			runtime.Gosched()
		}
	}()
	go func() {
		defer wg.Done()
		peer := histstore.NewHTTPStore(d.ts.URL)
		defer peer.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := roundSig(uint64(5000 + i%pool))
			s.Rev = uint64(1 + i/pool) // every push changes the daemon
			if _, err := peer.Push(context.Background(), histOf(s)); err != nil {
				t.Errorf("peer push: %v", err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		syncNow(t, rt)
	}
	close(stop)
	wg.Wait()
	syncNow(t, rt)
	c := rt.MonitorCounters()
	t.Logf("%d rounds: %d pulled news, %d pushed, %d covered",
		c.SyncRounds.Load(), c.SyncPulls.Load(), c.SyncPushes.Load(), c.SyncCovered.Load())
	if got, want := fleetState(d.server().History()), fleetState(rt.History()); got != want {
		t.Fatalf("the daemon diverged from the runtime:\n%s\nvs\n%s", got, want)
	}
}
