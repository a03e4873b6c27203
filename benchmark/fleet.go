package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"dimmunix"
	"dimmunix/internal/histstore"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// fleet_sync: one request is one inoculation round — runtime A learns a
// signature, syncs it to an in-process history daemon on a loopback
// listener, runtime B syncs it down — "A archives, B yields" minus the
// sync-interval wait. Slices are count-based because a round's cost depends
// on the history's size, and every slice starts from a fresh fleet.

const (
	fleetRounds       = 12 // rounds per slice
	fleetMinSlices    = 20
	fleetRoundTimeout = 10 * time.Second
)

type fleet struct {
	srv            *histstore.Server
	stopSrv        func()
	storeA, storeB *histstore.HTTPStore
	a, b           *dimmunix.Runtime

	probeMu    *dimmunix.CoreMutex // a lock of B's, taken at fleetProbe
	probeStack stack.Stack
}

// fleetProbe is the call site the last signature of a slice names: before
// that signature reaches B a Lock here takes the fast tier, after it the
// guarded tier.
//
//go:noinline
func fleetProbe(m *dimmunix.CoreMutex) error {
	if err := m.Lock(); err != nil {
		return err
	}
	return m.Unlock()
}

// newFleet builds the server, seeds it, and starts A and B on their own
// HTTP stores with the sync loop off. The returned duration is the
// construction the fleet's setup_s is made of: everything up to both
// runtimes having loaded the history.
func newFleet(seedHist *signature.History) (*fleet, time.Duration, error) {
	t0 := time.Now()
	srv, err := histstore.NewServer(nil)
	if err != nil {
		return nil, 0, err
	}
	base, stop, err := serveLoopback(srv.Handler())
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{srv: srv, stopSrv: stop}
	ctx, cancel := context.WithTimeout(context.Background(), fleetRoundTimeout)
	defer cancel()
	seeder := histstore.NewHTTPStore(base)
	_, err = seeder.Push(ctx, seedHist)
	seeder.Close()
	if err != nil {
		f.close()
		return nil, 0, err
	}
	f.storeA, f.storeB = histstore.NewHTTPStore(base), histstore.NewHTTPStore(base)
	if f.a, err = dimmunix.NewRuntime(dimmunix.WithHistoryStore(f.storeA), dimmunix.WithSyncInterval(-1)); err != nil {
		f.close()
		return nil, 0, err
	}
	if f.b, err = dimmunix.NewRuntime(dimmunix.WithHistoryStore(f.storeB), dimmunix.WithSyncInterval(-1)); err != nil {
		f.close()
		return nil, 0, err
	}
	built := time.Since(t0)

	f.probeMu = f.b.NewMutex()
	if err := fleetProbe(f.probeMu); err != nil {
		f.close()
		return nil, 0, err
	}
	for _, s := range f.b.CapturedStacks() {
		if innermostIs(s, "fleetProbe") {
			f.probeStack = s
		}
	}
	if f.probeStack == nil {
		f.close()
		return nil, 0, errors.New("fleet: probe call site was not captured")
	}
	return f, built, nil
}

// close stops whatever of the fleet exists and waits for the server
// goroutine.
func (f *fleet) close() {
	if f.a != nil {
		_ = f.a.Stop() // the final publish is not part of any round
	}
	if f.b != nil {
		_ = f.b.Stop()
	}
	if f.storeA != nil {
		f.storeA.Close()
		f.storeB.Close()
	}
	f.stopSrv()
}

// round runs one inoculation round and checks that B learned the
// signature and republished its danger index.
func (f *fleet) round(sig *signature.Signature, tr *tracer) error {
	ctx, cancel := context.WithTimeout(context.Background(), fleetRoundTimeout)
	defer cancel()
	epoch := f.b.History().Danger().Epoch()
	tr.beginRequest()
	t0 := tr.start()
	added := f.a.History().Add(sig)
	tr.end(spanHistoryAdd, t0)
	t0 = tr.start()
	errA := f.a.SyncNow(ctx)
	tr.end(spanSyncNow, t0)
	t0 = tr.start()
	errB := f.b.SyncNow(ctx)
	tr.end(spanSyncNow, t0)
	tr.endRequest([opsPerRequest]byte{})
	switch {
	case !added:
		return fmt.Errorf("signature %s was already in A's history", sig.ID)
	case errA != nil:
		return fmt.Errorf("A.SyncNow: %w", errA)
	case errB != nil:
		return fmt.Errorf("B.SyncNow: %w", errB)
	case f.b.History().Get(sig.ID) == nil:
		return fmt.Errorf("signature %s did not reach B", sig.ID)
	case f.b.History().Danger().Epoch() <= epoch:
		return errors.New("B's danger epoch did not advance")
	}
	return nil
}

// fleetSignature is round k of slice s: synthetic stacks outside the seed
// history's range, except that a slice's last signature names the probe
// call site (at depth 1, the call site alone).
func (f *fleet) fleetSignature(seed int64, s, k int) *signature.Signature {
	base := uint64(seed)<<24 + 1<<22 + uint64(s*fleetRounds+k)*2
	if k == fleetRounds-1 {
		return signature.New(signature.Deadlock, []stack.Stack{f.probeStack, stack.Synthetic(base, historyDepth)}, 1)
	}
	return signature.New(signature.Deadlock,
		[]stack.Stack{stack.Synthetic(base, historyDepth), stack.Synthetic(base+1, historyDepth)}, historyDepth)
}

// converged checks that A's and B's histories equal the server's.
func (f *fleet) converged() error {
	want := f.srv.History().SortedIDs()
	for name, rt := range map[string]*dimmunix.Runtime{"A": f.a, "B": f.b} {
		if got := rt.History().SortedIDs(); !slices.Equal(got, want) {
			return fmt.Errorf("%s holds %d signatures, the server %d", name, len(got), len(want))
		}
	}
	return nil
}

// fleetRun accumulates a fleet_sync run. The echo (echo.go) is read before a
// fleet is built, between building and the rounds, and after the rounds;
// times are kept relative to the readings on either side.
type fleetRun struct {
	seed      int64
	seedHist  *signature.History
	gauge     *echoGauge
	lastRead  float64   // the reading that closed the previous slice, ns
	builds    []float64 // fleet construction / echo round trip
	roundTime []float64 // mean round of a slice / echo round trip
	rounds    []float64 // every round of the run / echo round trip
	roundNs   []int64   // every round of the run as measured
	cpu       []float64 // CPU per round / echo round trip
	echoUs    []float64 // the echo's round trip around each slice, µs
	attempted int64
	failed    int64
	problems  []string
}

func newFleetRun(seed int64) (*fleetRun, error) {
	r := &fleetRun{seed: seed, seedHist: syntheticHistory(seed, historySigs)}
	var err error
	if r.gauge, err = newEchoGauge(r.seedHist); err != nil {
		return nil, err
	}
	if _, err = r.gauge.read(); err != nil { // first connection
		return nil, err
	}
	r.lastRead, err = r.gauge.read()
	return r, err
}

func (r *fleetRun) problem(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// slice builds a fleet, runs fleetRounds rounds on it and checks it. When
// keep is set the fleet is returned still running, for the ladder.
func (r *fleetRun) slice(s int, tr *tracer, keep bool) (*fleet, error) {
	read0 := r.lastRead
	f, built, err := newFleet(r.seedHist)
	if err != nil {
		return nil, err
	}
	liveRuntime.Store(f.a)
	read1, err := r.gauge.read()
	if err != nil {
		f.close()
		return nil, err
	}
	r.builds = append(r.builds, float64(built)/((read0+read1)/2))
	var lat []int64
	cpu0 := cpuTime()
	t0 := time.Now()
	for k := 0; k < fleetRounds; k++ {
		sig := f.fleetSignature(r.seed, s, k)
		r.attempted++
		liveRounds.Store(1)
		start := time.Now()
		err := f.round(sig, tr)
		lat = append(lat, int64(time.Since(start)))
		liveRounds.Store(0)
		if err != nil {
			r.failed++
			r.problem("slice %d round %d: %v", s, k, err)
		}
	}
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	read2, err := r.gauge.read()
	if err != nil {
		f.close()
		return nil, err
	}
	r.lastRead = read2
	echoTrip := (read1 + read2) / 2
	r.roundTime = append(r.roundTime, float64(wall)/fleetRounds/echoTrip)
	r.cpu = append(r.cpu, float64(cpu)/fleetRounds/echoTrip)
	for _, ns := range lat {
		r.rounds = append(r.rounds, float64(ns)/echoTrip)
	}
	r.roundNs = append(r.roundNs, lat...)
	r.echoUs = append(r.echoUs, echoTrip/1e3)

	// The last signature names the probe call site: B must now send a Lock
	// there through the guarded tier.
	guarded := f.b.Stats().GuardedAcquired
	if err := fleetProbe(f.probeMu); err != nil {
		r.problem("slice %d: probe lock: %v", s, err)
	} else if got := f.b.Stats().GuardedAcquired - guarded; got != 1 {
		r.problem("slice %d: probe lock took the guarded tier %d times, want 1", s, got)
	}
	if err := f.converged(); err != nil {
		r.problem("slice %d: %v", s, err)
	}
	for name, rt := range map[string]*dimmunix.Runtime{"A": f.a, "B": f.b} {
		if st := rt.Stats(); st.DeadlocksDetected != 0 || st.Yields != 0 {
			r.problem("slice %d: %s saw %d deadlocks and %d yields", s, name, st.DeadlocksDetected, st.Yields)
		}
	}
	if keep {
		return f, nil
	}
	liveRuntime.Store(nil)
	f.close()
	return nil, nil
}

// outcome stops the gauge and starts the run's outcome.
func (r *fleetRun) outcome() *outcome {
	r.gauge.stop()
	return &outcome{workload: "fleet_sync", attempted: r.attempted, failed: r.failed, problems: r.problems}
}

// endToEnd fills fleet_sync's end-to-end metrics: ratios to the echo at its
// nominal quiet reading. The median round pools every round of the run; the
// others are medians over slices.
func (r *fleetRun) endToEnd(m *metrics) {
	m.set("setup_s", median(r.builds)*echoNominalUs/1e6, "s")
	m.set("req_per_s", 1e6/(median(r.roundTime)*echoNominalUs), "req/s")
	m.set("req_p50_us", quantileOf(r.rounds, 0.50)*echoNominalUs, "us")
	m.set("cpu_us_per_req", median(r.cpu)*echoNominalUs, "us")
}

// runFleet is the untraced fleet_sync run: slices until the measuring time
// is used up, and never fewer than fleetMinSlices.
func runFleet(cfg runConfig) (*outcome, error) {
	warm, err := newFleetRun(cfg.seed)
	if err != nil {
		return nil, err
	}
	_, err = warm.slice(1<<12, nil, false) // first connections, lazy init
	warm.gauge.stop()
	if err != nil {
		return nil, err
	}
	r, err := newFleetRun(cfg.seed)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for s := 0; s < fleetMinSlices || time.Now().Before(deadline); s++ {
		if _, err := r.slice(s, nil, false); err != nil {
			return nil, err
		}
	}
	out := r.outcome()
	r.endToEnd(&out.metrics)
	out.refUs, out.refNominalUs = median(r.echoUs), echoNominalUs
	return out, nil
}
