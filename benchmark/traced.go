package main

import (
	"fmt"
	"runtime"
	"time"

	"dimmunix"
	"dimmunix/internal/signature"
)

// A traced run fills the per-layer metrics. It alternates untraced and
// traced slices of the workload (their ratio is the tracing overhead), runs
// the same service on sync's locks for the floor, and then climbs the
// ladder. End-to-end metrics are never taken from a traced run.

// tracedBudget splits a traced run's measuring time: pairs of untraced and
// traced slices, floor slices, and the time each ladder rung may use beyond
// its minimum sample.
func tracedBudget(seconds float64) (pairs, floorSlices int, rung time.Duration) {
	pairs = max(4, int(seconds*0.35/(2*(sliceLength+shadowSlice).Seconds())))
	floorSlices = max(3, int(seconds*0.08/sliceLength.Seconds()))
	rung = time.Duration(seconds * 0.2 / 40 * float64(time.Second))
	return
}

// appDepth is how many frames lie between a goroutine's entry and the lock
// call in each request mode — where the ladder measures gid and capture.
func (w *workload) appDepth() int {
	switch w.mode {
	case modeFresh:
		return 3 // freshRequest, doRequest, op
	case modeSites:
		return 9 // clientMain, run, request, doRequestSites, site1..4, op
	default:
		return 5 // clientMain, run, request, doRequest, op
	}
}

// facadeMetrics turns the tracers' spans into the facade.* rows.
func facadeMetrics(trs []*tracer, m *metrics) {
	for _, row := range []struct {
		name string
		kind spanKind
	}{
		{"facade.lock_ns", spanLock},
		{"facade.unlock_ns", spanUnlock},
		{"facade.rlock_ns", spanRLock},
		{"facade.runlock_ns", spanRUnlock},
		{"facade.wlock_ns", spanWLock},
		{"facade.wunlock_ns", spanWUnlock},
	} {
		m.set(row.name, durationPercentile(durations(trs, row.kind), 0.5), "ns")
	}
	m.set("facade.lock_p99_ns", durationPercentile(durations(trs, spanLock), 0.99), "ns")
	m.set("facade.req_p99_us", durationPercentile(durations(trs, spanRequest), 0.99)/1e3, "us")
	m.set("facade.syncnow_us", durationPercentile(durations(trs, spanSyncNow), 0.5)/1e3, "us")
	m.set("facade.history_add_us", durationPercentile(durations(trs, spanHistoryAdd), 0.5)/1e3, "us")
}

// traceFile writes the retained spans and reports request self time; every
// facade span in the file must have its request in it.
func traceFile(trs []*tracer, cfg runConfig, out *outcome) error {
	spans := mergeSpans(trs)
	if n := orphans(spans); n != 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d facade spans without a request parent", n))
	}
	var self []int64
	for _, ns := range selfTimes(spans) {
		self = append(self, ns)
	}
	out.metrics.set("facade.req_self_us", durationPercentile(self, 0.5)/1e3, "us")
	path, err := writeTrace(cfg.outDir, out.workload, spans)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s: %d spans\n", path, len(spans))
	return nil
}

func runSvcTraced(w *workload, cfg runConfig) (*outcome, error) {
	pairs, floorSlices, rung := tracedBudget(cfg.seconds)
	r, err := prepareSvc(w, cfg.seed, tracedSetups, cfg.outDir)
	if err != nil {
		return nil, err
	}
	rt := dimmunix.Default()
	liveRuntime.Store(rt)
	r.slice(nil, false)

	var plain, traced sliceSeries
	var allocs, bytes []float64
	var before, after runtime.MemStats
	for i := 0; i < pairs; i++ {
		runtime.ReadMemStats(&before)
		res := r.slice(&plain, false)
		runtime.ReadMemStats(&after)
		if res.reqs > 0 {
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(res.reqs))
			bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(res.reqs))
		}
		r.slice(&traced, true)
	}

	// Quiesce: one pass by hand so the counters cover every request.
	rt.Monitor().Pass()
	st := rt.Stats()
	out := &outcome{workload: w.name, problems: r.check(st)}
	started, finished, violated, _ := r.pool.counts()
	out.attempted = started
	out.failed = started - finished + violated
	m := &out.metrics

	facadeMetrics(r.pool.tracers, m)
	m.set("facade.allocs_per_req", median(allocs), "count")
	m.set("facade.bytes_per_req", median(bytes), "B")
	m.set("bench.trace_overhead_share", 1-median(traced.relRate)/median(plain.relRate), "share")
	m.set("facade.req_p95_us", median(plain.p95us), "us")
	m.set("bench.ref_p50_us", median(plain.shadowP50us), "us")

	reqs := float64(finished)
	m.set("core.threads_live_max", float64(r.liveMax), "count")
	m.set("core.thread_prunes", float64(st.ThreadPrunes), "count")
	m.set("core.fast_share", float64(st.FastAcquired)/float64(st.Acquired), "share")
	m.set("core.guarded_share", float64(st.GuardedAcquired)/float64(st.Acquired), "share")
	m.set("core.events_per_req", float64(st.EventsProcessed)/reqs, "count")
	m.set("monitor.passes", float64(st.MonitorPasses), "count")
	yieldUs := float64(st.Latency.Yield.P50) / 1e3
	m.set("avoidance.yields_per_mreq", float64(st.Yields)/reqs*1e6, "count")
	m.set("avoidance.yield_p50_us", yieldUs, "us")
	// Expected delay per request: yield episodes times their median length
	// (the runtime's histogram keeps bucketed percentiles, not a sum).
	m.set("avoidance.delay_us_per_req", float64(st.Yields)*yieldUs/reqs, "us")
	m.set("stack.interner_len", float64(len(rt.CapturedStacks())), "count")

	// The floor: the identical service and traffic on sync's locks.
	floorPool := newClientPool(w, newSyncService(numCells, numRows), numClients, cfg.seed, 1)
	floorPool.runSlice(sliceLength, 0, false)
	var floorRate, floorP50 []float64
	for i := 0; i < floorSlices; i++ {
		res := floorPool.runSlice(sliceLength, 0, false)
		floorRate = append(floorRate, ratePerS(res))
		floorP50 = append(floorP50, res.p50/1e3)
	}
	floorPool.stop()
	m.set("floor.sync_req_us", quietLow(floorP50), "us")
	m.set("floor.sync_req_per_s", quietHigh(floorRate), "req/s")

	hist, err := signature.Load(r.histPath)
	if err != nil {
		return nil, err
	}
	in := ladderInput{w: w, seed: cfg.seed, histPath: r.histPath, hist: hist, depth: w.appDepth(), budget: rung, outDir: cfg.outDir}
	ladderBind(m)
	ladderRuntime(rt, in, m)
	liveRuntime.Store(nil)
	if err := r.finish(); err != nil {
		return nil, err
	}
	if err := ladderDetached(w, in, m); err != nil {
		return nil, err
	}
	return out, traceFile(r.pool.tracers, cfg, out)
}

// ladderDetached runs the rungs that bring their own runtimes or none.
func ladderDetached(w *workload, in ladderInput, m *metrics) error {
	if err := ladder(in, m); err != nil {
		return err
	}
	passUs, err := monitorPass(w, in, 3)
	if err != nil {
		return err
	}
	m.set("monitor.pass_us", passUs, "us")
	perThread, err := threadBytesLive(50_000)
	if err != nil {
		return err
	}
	m.set("core.thread_bytes_live", perThread, "B")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("proc.gc_cpu_share", ms.GCCPUFraction, "share")
	m.set("proc.rss_peak_mb", procStatusMB("VmHWM"), "MB")
	return nil
}

// runFleetTraced traces a few fleet slices, keeps the last fleet up for the
// runtime rungs, and climbs the rest of the ladder on the plain service
// mix — the lock-path rungs say nothing about fleet_sync and should stay
// flat on it.
func runFleetTraced(cfg runConfig) (*outcome, error) {
	_, _, rung := tracedBudget(cfg.seconds)
	r, err := newFleetRun(cfg.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer(0, time.Now())
	slices := max(3, int(cfg.seconds*0.35)/2)
	var plain, traced []float64 // relative round time, untraced and traced slices
	var last *fleet
	for s := 0; s < slices; s++ {
		// Untraced and traced slices alternate, as in the svc_* runs.
		if _, err := r.slice(2*s, nil, false); err != nil {
			return nil, err
		}
		plain = append(plain, r.roundTime[len(r.roundTime)-1])
		f, err := r.slice(2*s+1, tr, s == slices-1)
		if err != nil {
			return nil, err
		}
		traced = append(traced, r.roundTime[len(r.roundTime)-1])
		last = f
	}
	out := r.outcome()
	m := &out.metrics
	trs := []*tracer{tr}
	facadeMetrics(trs, m)
	m.set("bench.trace_overhead_share", 1-median(plain)/median(traced), "share")
	m.set("facade.req_p95_us", durationPercentile(r.roundNs, 0.95)/1e3, "us")
	m.set("bench.ref_p50_us", median(r.echoUs), "us")

	last.a.Monitor().Pass()
	st := last.a.Stats()
	m.set("core.threads_live_max", float64(last.a.NumThreads()), "count")
	m.set("core.thread_prunes", float64(st.ThreadPrunes), "count")
	bst := last.b.Stats() // B took the probe lock twice: once fast, once guarded
	m.set("core.fast_share", float64(bst.FastAcquired)/float64(bst.Acquired), "share")
	m.set("core.guarded_share", float64(bst.GuardedAcquired)/float64(bst.Acquired), "share")
	m.set("core.events_per_req", float64(st.EventsProcessed+bst.EventsProcessed)/fleetRounds, "count")
	m.set("monitor.passes", float64(st.MonitorPasses), "count")
	m.set("avoidance.yields_per_mreq", float64(st.Yields+bst.Yields), "count")
	m.set("stack.interner_len", float64(len(last.b.CapturedStacks())), "count")
	// Rows that mean nothing on fleet_sync — it binds no drop-in mutex, has
	// no service to put on sync's locks, and never yields — read 0.
	for _, name := range []string{"avoidance.yield_p50_us", "avoidance.delay_us_per_req", "facade.bind_ns",
		"facade.allocs_per_req", "facade.bytes_per_req", "floor.sync_req_us", "floor.sync_req_per_s"} {
		m.set(name, 0, layerUnit(name))
	}

	histPath := cfg.outDir + "/history-fleet_sync.json"
	if err := last.srv.History().SaveTo(histPath); err != nil {
		return nil, err
	}
	hist, err := signature.Load(histPath)
	if err != nil {
		return nil, err
	}
	w := &svcWorkloads[0]
	in := ladderInput{w: w, seed: cfg.seed, histPath: histPath, hist: hist, depth: w.appDepth(), budget: rung, outDir: cfg.outDir}
	ladderRuntime(last.a, in, m)
	var passes []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		last.a.Monitor().Pass()
		passes = append(passes, float64(time.Since(t0)))
	}
	liveRuntime.Store(nil)
	last.close()
	if err := ladderDetached(w, in, m); err != nil {
		return nil, err
	}
	m.set("monitor.pass_us", median(passes)/1e3, "us") // an idle fleet member's pass, not a service backlog
	return out, traceFile(trs, cfg, out)
}
