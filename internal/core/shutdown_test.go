// Outage-tolerance tests: a runtime whose sync daemon goes dark must
// never make the protected application worse — Stop returns within the
// shutdown budget even with a sync round blocked in store I/O, and the
// sync machinery's failures stay contained to error counters.
package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dimmunix/internal/histstore"
)

// hangingDaemon serves probes and pulls normally but parks every push
// until the client gives up — the worst-case outage shape for shutdown,
// since the exit publish is a push. It reports how many pushes it
// stalled.
func hangingDaemon(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var stalled atomic.Int64
	stop := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/v1/version":
			json.NewEncoder(w).Encode(map[string]string{"version": "1"})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/history":
			w.Header().Set("X-Dimmunix-History-Version", "1")
			w.Write([]byte(`{"format":2}`))
		default:
			// Drain the body first: net/http only detects a client
			// disconnect (and cancels r.Context()) once the request body
			// has been consumed.
			io.Copy(io.Discard, r.Body)
			stalled.Add(1)
			select {
			case <-r.Context().Done(): // the client abandoned the push
			case <-stop: // test teardown backstop
			}
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(stop) }) // runs before ts.Close (LIFO)
	return ts, &stalled
}

// TestStopBoundedUnderStoreOutage is the PR 4 acceptance criterion:
// with an effectively unreachable store and a sync round in flight
// (blocked inside a push), Runtime.Stop returns within 2× the
// configured shutdown timeout — the in-flight round is cancelled and
// the exit publish is abandoned at the budget, not retried to
// completion.
func TestStopBoundedUnderStoreOutage(t *testing.T) {
	ts, stalled := hangingDaemon(t)

	const budget = 500 * time.Millisecond
	cfg := testConfig()
	cfg.HistoryStore = histstore.NewHTTPStore(ts.URL)
	cfg.SyncInterval = 10 * time.Millisecond
	cfg.ShutdownTimeout = budget
	rt := MustNew(cfg)

	// The runtime holds a signature the daemon's (empty) snapshot lacks,
	// so the next round pushes — a round whose pull covers the local
	// history would not — and hangs. Wait for a round to actually be in
	// flight inside the stalled push.
	rt.History().Add(roundSig(1))
	waitFor(t, "a sync round to block in store I/O", func() bool {
		return stalled.Load() > 0
	})

	start := time.Now()
	err := rt.Stop()
	elapsed := time.Since(start)
	if elapsed > 2*budget {
		t.Fatalf("Stop took %v with the store hung; budget is 2x%v", elapsed, budget)
	}
	if err == nil {
		t.Fatal("Stop must surface the abandoned exit publish")
	}
}

// TestSyncNowHonorsCallerContext: SyncNow (and therefore ReloadHistory)
// aborts with the caller's context error when the store hangs.
func TestSyncNowHonorsCallerContext(t *testing.T) {
	ts, _ := hangingDaemon(t)

	cfg := testConfig()
	cfg.HistoryStore = histstore.NewHTTPStore(ts.URL)
	cfg.SyncInterval = -1 // manual rounds only
	rt := MustNew(cfg)
	defer rt.Stop()
	rt.History().Add(roundSig(1)) // something the daemon lacks: the push is what hangs

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := rt.SyncNow(ctx)
	if err == nil {
		t.Fatal("SyncNow against a hanging store must fail once its context expires")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("SyncNow took %v to honor a 100ms deadline", elapsed)
	}
}

// TestOutageKeepsImmunityLocal: with the daemon unreachable from the
// start, the runtime still detects, recovers, and archives locally —
// the availability half of the §8 argument — and its Stop stays within
// the budget.
func TestOutageKeepsImmunityLocal(t *testing.T) {
	cfg := testConfig()
	cfg.HistoryStore = histstore.NewHTTPStore("http://127.0.0.1:1") // nothing listens
	cfg.SyncInterval = 10 * time.Millisecond
	cfg.ShutdownTimeout = 500 * time.Millisecond
	cfg.SyncRoundTimeout = 200 * time.Millisecond
	cfg.MatchDepth = 2
	cfg.RecoverAborts = true
	rt := MustNew(cfg)

	a, b := rt.NewMutex(), rt.NewMutex()
	forceDeadlock(rt, a, b, holdTime)
	waitFor(t, "local archive during the outage", func() bool {
		return rt.History().Len() == 1
	})
	waitFor(t, "sync errors to be counted, not fatal", func() bool {
		return rt.MonitorCounters().SyncErrors.Load() > 0
	})

	start := time.Now()
	_ = rt.Stop() // the publish fails; the error is expected
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Stop took %v against a dead store", elapsed)
	}
	if rt.History().Len() != 1 {
		t.Fatal("outage lost the locally archived signature")
	}
}
