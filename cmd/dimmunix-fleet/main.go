// Command dimmunix-fleet is the two-process shared-immunity smoke
// worker: role "a" triggers a lock-order-inversion deadlock once (it is
// recovered, its signature archived and pushed to the shared store);
// role "b" waits for the signature to arrive through the store's sync
// loop, then runs the exact same locking pattern and must complete
// cleanly — deadlock immunity acquired without ever deadlocking itself,
// the paper's §8 fleet scenario. Role "c" is the outage drill: it runs
// the same exploit against an unreachable store and must still recover
// locally AND stop within the shutdown budget — distributing immunity
// may never make the protected application worse.
//
// Roles "canary" and "avoid" are the predictive-immunity drill: the
// canary runs the SAME inversion code serialized — no contention, no
// deadlock — with trace mode on (DIMMUNIX_TRACE), leaving a journal for
// dimmunix-predict to analyze and push; the avoid worker then converges
// on the predicted signature and must survive the real interleaving on
// its first encounter with zero deadlocks detected — immunity acquired
// before any process in the fleet ever hung.
//
// Usage:
//
//	dimmunix-fleet -store http://127.0.0.1:7676 -role a
//	dimmunix-fleet -store http://127.0.0.1:7676 -role b [-wait 15s]
//	dimmunix-fleet -store http://127.0.0.1:7676 -role c        # daemon dead
//	DIMMUNIX_TRACE=/tmp/canary.trace dimmunix-fleet -store ... -role canary
//	dimmunix-fleet -store http://127.0.0.1:7676 -role avoid    # after predict push
//
// All roles exit 0 on success and 1 on a property violation, so the CI
// smoke steps can assert the fleet-immunity and bounded-shutdown
// properties end to end.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"flag"

	"dimmunix"
	"dimmunix/internal/signature"
)

var (
	storeSpec  = flag.String("store", "", "shared history store (file, dir, or http:// daemon)")
	role       = flag.String("role", "", "a = hit the deadlock once; b = converge and avoid it; c = outage drill; canary = record trace, no deadlock; avoid = converge on predicted signature and dodge first encounter")
	wait       = flag.Duration("wait", 15*time.Second, "roles b/avoid: how long to wait for convergence")
	hold       = flag.Duration("hold", 150*time.Millisecond, "timing window between the nested acquisitions")
	budget     = flag.Duration("budget", time.Second, "role c: configured shutdown timeout (Stop must return within 2x)")
	provenance = flag.String("provenance", signature.SourcePredicted, "role avoid: required Source of the converged signature (predicted, static)")
	statsOut   = flag.String("stats-out", "", "write the final runtime stats snapshot as JSON to this file (CI artifact)")
	metricsOut = flag.String("metrics-out", "", "write the final Prometheus-text metrics snapshot to this file (CI artifact)")
	debugAddr  = flag.String("debug", "", "serve dimmunix.DebugHandler on this address for the run (e.g. 127.0.0.1:7700)")
)

func main() {
	flag.Parse()
	switch *role {
	case "a", "b", "c", "canary", "avoid":
	default:
		*storeSpec = ""
	}
	if *storeSpec == "" {
		fmt.Fprintln(os.Stderr, "usage: dimmunix-fleet -store <spec> -role a|b|c|canary|avoid")
		os.Exit(2)
	}

	store, err := dimmunix.OpenHistoryStore(*storeSpec)
	if err != nil {
		fatal(err)
	}
	cfg := dimmunix.Config{
		HistoryStore:  store,
		SyncInterval:  100 * time.Millisecond,
		Tau:           5 * time.Millisecond,
		MatchDepth:    2,
		RecoverAborts: true,
	}
	if *role == "c" {
		cfg.ShutdownTimeout = *budget
		cfg.SyncRoundTimeout = *budget
	}
	if *role == "canary" {
		// The canary's whole point is the journal: trace mode is not
		// optional for it, so read the env knob explicitly and refuse to
		// run blind.
		cfg.TracePath = os.Getenv("DIMMUNIX_TRACE")
		if cfg.TracePath == "" {
			fatal(fmt.Errorf("role canary: set DIMMUNIX_TRACE to the journal path"))
		}
	}
	rt, err := dimmunix.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer rt.Stop()

	if *debugAddr != "" {
		// The worker's own observability endpoint: the same DebugHandler
		// a production service would mount on its operations port.
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/statusz", dimmunix.DebugHandler(rt))
		go http.Serve(ln, mux)
		fmt.Printf("role %s: /statusz on %s\n", *role, ln.Addr())
	}
	if *statsOut != "" {
		defer writeStats(rt, *statsOut)
	}
	if *metricsOut != "" {
		defer writeMetricsFile(rt, *metricsOut)
	}

	switch *role {
	case "a":
		errs := exercise(rt, *hold, false)
		if !deadlocked(errs) {
			fatal(fmt.Errorf("role a: expected the exploit to deadlock, got %v", errs))
		}
		if err := rt.SyncNow(context.Background()); err != nil {
			fatal(err)
		}
		fmt.Printf("role a: deadlocked once, archived and pushed %d signature(s)\n",
			rt.History().Len())
	case "b":
		deadline := time.Now().Add(*wait)
		for rt.History().Len() == 0 {
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("role b: no signature arrived within %v", *wait))
			}
			time.Sleep(10 * time.Millisecond)
		}
		fmt.Printf("role b: converged to %d signature(s), danger epoch %d\n",
			rt.History().Len(), rt.History().Danger().Epoch())
		errs := exercise(rt, *hold, false)
		if deadlocked(errs) {
			fatal(fmt.Errorf("role b: deadlocked despite the shared signature"))
		}
		for _, e := range errs {
			if e != nil {
				fatal(fmt.Errorf("role b: worker failed: %v", e))
			}
		}
		// The signature usually arrives via the startup store load (role
		// b starts after role a pushed); the sync loop must still be
		// demonstrably healthy — rounds advancing without errors is the
		// liveness signal /statusz exposes to operators.
		stats := rt.Stats()
		if stats.SyncRounds == 0 {
			fatal(fmt.Errorf("role b: no sync rounds ran despite convergence"))
		}
		fmt.Printf("role b: clean run, %d yields over %d sync rounds (%d pulls, %d pushes, %d covered) — immunity acquired without deadlocking\n",
			stats.Yields, stats.SyncRounds, stats.SyncPulls, stats.SyncPushes, stats.SyncCovered)
	case "c":
		// The store is expected to be dead (the CI step killed the
		// daemon). Local immunity must be unimpaired: the deadlock is
		// still detected and recovered, its signature archived locally.
		errs := exercise(rt, *hold, false)
		if !deadlocked(errs) {
			fatal(fmt.Errorf("role c: expected the exploit to deadlock locally, got %v", errs))
		}
		if rt.History().Len() == 0 {
			fatal(fmt.Errorf("role c: signature not archived locally during the outage"))
		}
		// And shutdown must be bounded: the exit publish is abandoned
		// within the budget instead of stalling the process. 2x covers
		// the publish plus scheduling slack, mirroring the in-tree test.
		start := time.Now()
		err := rt.Stop()
		elapsed := time.Since(start)
		if elapsed > 2*(*budget) {
			fatal(fmt.Errorf("role c: Stop took %v, budget 2x%v", elapsed, *budget))
		}
		fmt.Printf("role c: outage survived — recovered locally, Stop returned in %v (publish err: %v)\n",
			elapsed.Round(time.Millisecond), err)
	case "canary":
		// Serialized schedule through the exact same call sites as the
		// exploit: no contention, no deadlock — only a trace journal that
		// proves the inversion for the offline predictor.
		errs := exercise(rt, *hold, true)
		for _, e := range errs {
			if e != nil {
				fatal(fmt.Errorf("role canary: worker failed: %v", e))
			}
		}
		if n := rt.MonitorCounters().DeadlocksDetected.Load(); n != 0 {
			fatal(fmt.Errorf("role canary: detected %d deadlocks; the schedule must be disjoint", n))
		}
		if err := rt.Stop(); err != nil {
			fatal(fmt.Errorf("role canary: stop: %v", err))
		}
		stats := rt.Stats()
		if stats.TraceRecords == 0 {
			fatal(fmt.Errorf("role canary: trace mode recorded nothing"))
		}
		fmt.Printf("role canary: clean serialized run, %d trace records (%d dropped) in %s\n",
			stats.TraceRecords, stats.TraceDropped, cfg.TracePath)
	case "avoid":
		// Converge on the predicted (or statically emitted) signature —
		// pushed by dimmunix-predict or dimmunix-vet, not by any
		// deadlocked process — then survive the real interleaving on the
		// very first encounter.
		deadline := time.Now().Add(*wait)
		for rt.History().Len() == 0 {
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("role avoid: no %s signature arrived within %v", *provenance, *wait))
			}
			time.Sleep(10 * time.Millisecond)
		}
		matched := 0
		for _, s := range rt.HistorySummary().Signatures {
			if s.Source == *provenance {
				matched++
			}
		}
		if matched == 0 {
			fatal(fmt.Errorf("role avoid: converged, but no entry carries %q provenance", *provenance))
		}
		fmt.Printf("role avoid: converged to %d signature(s) (%d %s), danger epoch %d\n",
			rt.History().Len(), matched, *provenance, rt.History().Danger().Epoch())
		errs := exercise(rt, *hold, false)
		for _, e := range errs {
			if e != nil {
				fatal(fmt.Errorf("role avoid: worker failed: %v", e))
			}
		}
		stats := rt.Stats()
		if stats.DeadlocksDetected != 0 {
			fatal(fmt.Errorf("role avoid: %d deadlocks detected — prediction did not inoculate", stats.DeadlocksDetected))
		}
		if stats.Yields == 0 {
			fatal(fmt.Errorf("role avoid: clean run but no avoidance yields — the pattern was not exercised"))
		}
		fmt.Printf("role avoid: first encounter avoided — %d yields, 0 deadlocks, immunity acquired before any process ever hung\n",
			stats.Yields)
	}
}

// exercise runs the canonical AB/BA inversion: two workers each nest a
// pair of locks in opposite order, holding the first for the timing
// window. Identical code in every role means identical call stacks, so
// a signature archived by role a — or predicted from role canary's
// trace — matches the requests of roles b and avoid. With serialize
// set, the first worker finishes before the second starts: same code,
// same stacks, zero contention — the canary schedule.
func exercise(rt *dimmunix.Runtime, hold time.Duration, serialize bool) []error {
	a, b := rt.NewMutex(), rt.NewMutex()
	errs := make([]error, 2)
	done := make(chan struct{}, 2)
	run := func(i int, first, second *dimmunix.CoreMutex) {
		th := rt.RegisterThread(fmt.Sprintf("w%d", i))
		defer th.Close()
		defer func() { done <- struct{}{} }()
		errs[i] = nest(th, first, second, hold)
	}
	go run(0, a, b)
	if serialize {
		<-done
	}
	go run(1, b, a)
	<-done
	if !serialize {
		<-done
	}
	return errs
}

func nest(th *dimmunix.Thread, outer, inner *dimmunix.CoreMutex, hold time.Duration) error {
	if err := outer.LockT(th); err != nil {
		return err
	}
	time.Sleep(hold)
	//lint:ignore lockorder deliberate inversion: the fleet drill deadlock the canary inoculates against
	if err := inner.LockT(th); err != nil {
		_ = outer.UnlockT(th)
		return err
	}
	_ = inner.UnlockT(th)
	_ = outer.UnlockT(th)
	return nil
}

func deadlocked(errs []error) bool {
	for _, err := range errs {
		if err == dimmunix.ErrDeadlockRecovered {
			return true
		}
	}
	return false
}

// writeStats dumps the runtime's counter snapshot as JSON — the CI
// fleet e2e uploads it as an artifact.
func writeStats(rt *dimmunix.Runtime, path string) {
	data, err := json.MarshalIndent(map[string]any{
		"role":  *role,
		"stats": rt.Stats(),
	}, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dimmunix-fleet: stats-out:", err)
	}
}

func writeMetricsFile(rt *dimmunix.Runtime, path string) {
	var buf bytes.Buffer
	dimmunix.WriteMetrics(&buf, rt.Stats())
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dimmunix-fleet: metrics-out:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dimmunix-fleet:", err)
	os.Exit(1)
}
