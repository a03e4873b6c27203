package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"dimmunix"
	"dimmunix/internal/avoidance"
	"dimmunix/internal/event"
	"dimmunix/internal/gid"
	"dimmunix/internal/histstore"
	"dimmunix/internal/obs"
	"dimmunix/internal/queue"
	"dimmunix/internal/rag"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// The ladder calls each layer's public functions directly, with inputs taken
// from the workload: its PC keys, its history, its event mix. Every rung is
// a per-layer metric; README.md records which end-to-end metric each should
// move, and on which workload.

// measure times fn in batches of batch calls — at least minBatches of them,
// more while budget lasts — and returns the median nanoseconds per call.
// Batching keeps the clock reads out of nanosecond-scale rungs.
func measure(budget time.Duration, minBatches, batch int, fn func()) float64 {
	const maxBatches = 4000
	per := make([]float64, 0, minBatches)
	deadline := time.Now().Add(budget)
	for len(per) < minBatches || (len(per) < maxBatches && time.Now().Before(deadline)) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// batchesFor makes a nanosecond rung cover at least 10 000 calls.
func batchesFor(batch int) int { return (10_000 + batch - 1) / batch }

// atDepth calls fn from d frames deeper than its caller.
//
//go:noinline
func atDepth(d int, fn func()) {
	if d > 0 {
		atDepth(d-1, fn)
		return
	}
	fn()
}

// onGoroutine runs fn on a fresh goroutine, d frames deep, and waits for it.
// With d a workload's appDepth, a measure call inside fn sits about as deep
// as that workload's lock path does when it asks for the goroutine's
// identity.
func onGoroutine(d int, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		atDepth(d, fn)
	}()
	<-done
}

// probe stands in for the runtime on a single-threaded pass over the
// workload's own traffic. Its locks record the raw PC stack of every lock
// call site and send the acquisition through a private avoidance cache the
// way core does, so the ladder gets the workload's PC keys and its event mix
// without reaching into the runtime under test.
type probe struct {
	interner *stack.Interner
	pcc      *stack.PCCache
	cache    *avoidance.Cache
	ts       *avoidance.ThreadState
	keys     map[uint64][]uintptr
	events   []event.Event
}

func newProbe(hist *signature.History) *probe {
	p := &probe{interner: stack.NewInterner(), pcc: stack.NewPCCache(), keys: make(map[uint64][]uintptr)}
	p.cache = avoidance.NewCache(avoidance.Config{EventBatch: 64}, p.interner, hist, &avoidance.Stats{}, p.emit)
	p.ts = p.cache.NewThread(1, 1, "probe")
	return p
}

func (p *probe) emit(ev event.Event) {
	if ev.Kind != event.Batch {
		p.events = append(p.events, ev)
		return
	}
	for _, r := range *ev.Recs {
		p.events = append(p.events, event.Event{Kind: r.Kind, TID: ev.TID, LID: r.LID, Stack: r.Stack})
	}
	event.PutRecs(ev.Recs)
}

type probeLock struct {
	p  *probe
	ls *avoidance.LockState
}

func (l *probeLock) Lock()    { l.p.acquire(l.ls, false) }
func (l *probeLock) RLock()   { l.p.acquire(l.ls, true) }
func (l *probeLock) Unlock()  { l.p.cache.ReleaseAny(l.p.ts, l.ls) }
func (l *probeLock) RUnlock() { l.p.cache.ReleaseAny(l.p.ts, l.ls) }

//go:noinline
func (p *probe) acquire(ls *avoidance.LockState, shared bool) {
	var buf [stack.MaxCaptureDepth]uintptr
	pcs := buf[:stack.CapturePCs(2, buf[:])] // past acquire and Lock: the op's call site is innermost
	in, ok := p.pcc.Get(pcs)
	if !ok {
		in = p.interner.Intern(stack.ResolvePCs(pcs, 16))
		p.pcc.Put(pcs, in)
		p.keys[stack.HashPCs(pcs)] = slices.Clone(pcs)
	}
	if p.cache.ClassifySafe(in) {
		p.cache.FastAcquiredImmediate(p.ts, ls, in, shared)
		p.cache.NoteFastHold(p.ts, ls, in, shared)
		return
	}
	p.cache.Request(p.ts, ls, in)
	if shared {
		p.cache.AcquiredShared(p.ts, ls)
	} else {
		p.cache.Acquired(p.ts, ls)
	}
}

// probeWorkload runs n requests of w's traffic over probe locks.
func probeWorkload(w *workload, hist *signature.History, seed int64, n int) *probe {
	p := newProbe(hist)
	lock := func() *probeLock { return &probeLock{p: p, ls: p.cache.NewLock()} }
	svc := newService(numCells, numRows, func() mutex { return lock() }, func() rwmutex { return lock() })
	pool := newClientPool(w, svc, 1, seed, 3)
	pool.runSlice(time.Minute, n, false)
	pool.stop()
	p.cache.FlushBuffers()
	return p
}

// ladderInput is what a workload hands the ladder.
type ladderInput struct {
	w        *workload // traffic shape the probe replays
	seed     int64
	histPath string
	hist     *signature.History // the workload's history, private to the ladder
	depth    int                // frames between the goroutine's entry and a lock call in this workload
	budget   time.Duration      // time per rung beyond its minimum sample
	outDir   string
}

// ladderRuntime measures the rungs that need the workload's live, quiesced
// runtime: the explicit-handle pipeline and thread registration.
func ladderRuntime(rt *dimmunix.Runtime, in ladderInput, m *metrics) {
	th := rt.RegisterThread("ladder")
	mu, rw := rt.NewMutex(), rt.NewRWMutex()
	m.set("core.lockt_pair_ns", measure(in.budget, batchesFor(64), 64, func() {
		_ = mu.LockT(th)
		_ = mu.UnlockT(th)
	}), "ns")
	m.set("core.rlockt_pair_ns", measure(in.budget, batchesFor(64), 64, func() {
		_ = rw.RLockT(th)
		_ = rw.RUnlockT(th)
	}), "ns")
	th.Close()

	onGoroutine(in.depth, func() {
		rt.CurrentThread()
		m.set("core.current_thread_ns", measure(in.budget, batchesFor(16), 16, func() { rt.CurrentThread() }), "ns")
	})
	m.set("core.register_thread_ns", measure(in.budget, batchesFor(16), 16, func() { rt.RegisterThread("").Close() }), "ns")
}

// bindSamples is how many zero-value mutexes facade.bind_ns binds.
const bindSamples = 10_000

// ladderBind times the first Lock of a zero-value drop-in Mutex, which binds
// it to the default runtime.
func ladderBind(m *metrics) {
	mus := make([]dimmunix.Mutex, bindSamples)
	ns := make([]int64, bindSamples)
	for i := range mus {
		t0 := time.Now()
		mus[i].Lock()
		ns[i] = int64(time.Since(t0))
		mus[i].Unlock()
	}
	m.set("facade.bind_ns", durationPercentile(ns, 0.5), "ns")
}

// ladder measures every rung that needs no live runtime.
func ladder(in ladderInput, m *metrics) error {
	b := in.budget
	p := probeWorkload(in.w, in.hist, in.seed, 2000)
	keys := make([][]uintptr, 0, len(p.keys))
	for _, k := range p.keys {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y []uintptr) int { return slices.Compare(x, y) })
	stacks := make([]stack.Stack, len(keys))
	for i, k := range keys {
		stacks[i] = stack.ResolvePCs(k, 16)
	}
	m.set("stack.pccache_len", float64(len(keys)), "count")

	// gid and stack: what every implicit-identity operation pays first.
	// Their cost grows with the stack below them, so they are timed on a
	// goroutine of their own, as deep as the workload's lock calls are.
	onGoroutine(in.depth, func() {
		m.set("gid.current_ns", measure(b, batchesFor(16), 16, func() { gid.Current() }), "ns")
		var buf [8]uintptr
		m.set("stack.capture_shallow_ns", measure(b, batchesFor(64), 64, func() { stack.CapturePCs(0, buf[:]) }), "ns")
		m.set("stack.capture_full_ns", measure(b, batchesFor(8), 8, func() { stack.Capture(0, 0) }), "ns")
	})
	onGoroutine(in.depth+32, func() {
		m.set("gid.current_deep_ns", measure(b, batchesFor(16), 16, func() { gid.Current() }), "ns")
	})
	i := 0
	m.set("stack.pccache_hit_ns", measure(b, batchesFor(256), 256, func() {
		p.pcc.Get(keys[i%len(keys)])
		i++
	}), "ns")
	m.set("stack.intern_ns", measure(b, batchesFor(128), 128, func() {
		p.interner.Intern(stacks[i%len(stacks)])
		i++
	}), "ns")

	// avoidance: the two tiers and the classification between them.
	sink := func(ev event.Event) {
		if ev.Kind == event.Batch {
			event.PutRecs(ev.Recs)
		}
	}
	cache := avoidance.NewCache(avoidance.Config{EventBatch: 64}, p.interner, in.hist, &avoidance.Stats{}, sink)
	ts, ls := cache.NewThread(1, 1, "ladder"), cache.NewLock()
	safe := p.interner.Intern(stack.Synthetic(1<<40, historyDepth))
	danger := p.interner.Intern(in.hist.Snapshot()[0].Stacks[0])
	if !cache.ClassifySafe(safe) || cache.ClassifySafe(danger) {
		return fmt.Errorf("ladder: classification of the reference stacks is wrong")
	}
	m.set("avoidance.fast_ns", measure(b, batchesFor(128), 128, func() {
		cache.FastAcquiredImmediate(ts, ls, safe, false)
		cache.NoteFastHold(ts, ls, safe, false)
		cache.ReleaseAny(ts, ls)
	}), "ns")
	m.set("avoidance.request_ns", measure(b, batchesFor(32), 32, func() {
		cache.Request(ts, ls, danger)
		cache.Acquired(ts, ls)
		cache.Release(ts, ls)
	}), "ns")
	m.set("avoidance.classify_ns", measure(b, batchesFor(1024), 1024, func() { cache.ClassifySafe(safe) }), "ns")
	idx := in.hist.Danger()
	m.set("signature.dangerous_ns", measure(b, batchesFor(256), 256, func() {
		idx.Dangerous(stacks[i%len(stacks)])
		i++
	}), "ns")

	// event publication: per-thread buffer, queue, drain.
	var buf event.Buffer
	rec := event.Record{Kind: event.Acquired, LID: 1, Stack: safe}
	m.set("event.buffer_add_ns", measure(b, batchesFor(1024), 1024, func() { buf.Add(1, rec, 64, sink) }), "ns")
	q := queue.New[event.Event]()
	ev := event.Event{Kind: event.Acquired, TID: 1, LID: 1, Stack: safe}
	var pushes, drains []float64
	for deadline := time.Now().Add(b); len(pushes) < batchesFor(1024) || (len(pushes) < 2000 && time.Now().Before(deadline)); {
		t0 := time.Now()
		for j := 0; j < 1024; j++ {
			q.Push(ev)
		}
		t1 := time.Now()
		n := q.Drain(func(event.Event) {})
		pushes = append(pushes, float64(t1.Sub(t0))/1024)
		drains = append(drains, float64(time.Since(t1))/float64(n))
	}
	m.set("queue.push_ns", median(pushes), "ns")
	m.set("queue.drain_ns_per_event", median(drains), "ns")

	// monitor side: the RAG over the workload's event mix.
	if len(p.events) == 0 {
		return fmt.Errorf("ladder: the probe recorded no events")
	}
	g := rag.New()
	var applies, detects []float64
	for deadline := time.Now().Add(b); len(applies) < 20 || (len(applies) < 2000 && time.Now().Before(deadline)); {
		t0 := time.Now()
		for _, e := range p.events {
			g.Apply(e)
		}
		t1 := time.Now()
		g.Detect()
		applies = append(applies, float64(t1.Sub(t0))/float64(len(p.events)))
		detects = append(detects, float64(time.Since(t1)))
	}
	m.set("rag.apply_ns", median(applies), "ns")
	m.set("rag.detect_us", median(detects)/1e3, "us")

	bus := obs.New(0, nil)
	m.set("obs.publish_idle_ns", measure(b, batchesFor(4096), 4096, func() {
		if bus.Active() { // the gate every publish site checks before building an event
			bus.Publish(obs.HistoryChanged{})
		}
	}), "ns")
	bus.Stop()

	if err := ladderSignature(in, m); err != nil {
		return err
	}
	return ladderStores(in, m)
}

// ladderSignature times the history codec and mutators at the workload's
// history size. These are microsecond rungs: medians over tens of calls.
func ladderSignature(in ladderInput, m *metrics) error {
	b := in.budget
	data, err := in.hist.MarshalJSONCompact()
	if err != nil {
		return err
	}
	var loadErr error
	m.set("signature.load_ms", measure(b, 20, 1, func() {
		if _, err := signature.Load(in.histPath); err != nil {
			loadErr = err
		}
	})/1e6, "ms")
	if loadErr != nil {
		return loadErr
	}
	m.set("signature.unmarshal_us", measure(b, 20, 1, func() {
		if err := signature.NewHistory().UnmarshalJSON(data); err != nil {
			loadErr = err
		}
	})/1e3, "us")
	if loadErr != nil {
		return loadErr
	}
	m.set("signature.marshal_us", measure(b, 20, 1, func() { _, _ = in.hist.MarshalJSONCompact() })/1e3, "us")

	// Merge and Add are timed on fresh copies: one new signature arriving
	// in a history of this size, danger-index republish included.
	fresh := func() *signature.History {
		h := signature.NewHistory()
		if err := h.UnmarshalJSON(data); err != nil {
			loadErr = err
		}
		return h
	}
	var merges, adds []float64
	for i := 0; i < 40; i++ {
		local, remote := fresh(), fresh()
		remote.Add(syntheticSignature(in.seed, 1<<21+i))
		t0 := time.Now()
		changed := local.Merge(remote)
		merges = append(merges, float64(time.Since(t0)))
		if changed != 1 {
			return fmt.Errorf("ladder: merge changed %d entries, want 1", changed)
		}
		sig := syntheticSignature(in.seed, 1<<21+1000+i)
		t0 = time.Now()
		local.Add(sig)
		adds = append(adds, float64(time.Since(t0)))
	}
	if loadErr != nil {
		return loadErr
	}
	m.set("signature.merge_us", median(merges)/1e3, "us")
	m.set("signature.add_reindex_us", median(adds)/1e3, "us")
	return nil
}

// ladderStores times Push/Load/Probe per store backend at the workload's
// history size, and a sync round with nothing to exchange.
func ladderStores(in ladderInput, m *metrics) error {
	ctx := context.Background()
	b := in.budget
	tmp, err := os.MkdirTemp(in.outDir, "stores-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	srv, err := histstore.NewServer(nil)
	if err != nil {
		return err
	}
	base, stopSrv, err := serveLoopback(srv.Handler())
	if err != nil {
		return err
	}
	defer stopSrv()
	httpStore := histstore.NewHTTPStore(base)
	defer httpStore.Close()
	dirStore, err := histstore.NewDirStore(filepath.Join(tmp, "dir"))
	if err != nil {
		return err
	}
	defer dirStore.Close()
	fileStore := histstore.NewFileStore(filepath.Join(tmp, "file.json"))

	var opErr error
	note := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	push := func(s histstore.Store) func() {
		return func() { _, err := s.Push(ctx, in.hist); note(err) }
	}
	m.set("histstore.http_push_us", measure(b, 30, 1, push(httpStore))/1e3, "us")
	m.set("histstore.http_load_us", measure(b, 30, 1, func() { _, _, err := httpStore.Load(ctx); note(err) })/1e3, "us")
	m.set("histstore.http_probe_us", measure(b, 30, 1, func() { _, err := httpStore.Probe(ctx); note(err) })/1e3, "us")
	m.set("histstore.file_push_us", measure(b, 30, 1, push(fileStore))/1e3, "us")
	m.set("histstore.dir_push_us", measure(b, 30, 1, push(dirStore))/1e3, "us")

	rt, err := dimmunix.NewRuntime(dimmunix.WithHistoryStore(httpStore), dimmunix.WithSyncInterval(-1))
	if err != nil {
		return err
	}
	note(rt.SyncNow(ctx))
	m.set("histstore.sync_idle_us", measure(b, 30, 1, func() { note(rt.SyncNow(ctx)) })/1e3, "us")
	note(rt.Stop())
	return opErr
}

// threadBytesLive is the heap an implicitly registered goroutine leaves
// behind under the default ThreadTTL: goroutines that each take one lock
// and exit, on a runtime of their own.
func threadBytesLive(goroutines int) (float64, error) {
	rt, err := dimmunix.NewRuntime()
	if err != nil {
		return 0, err
	}
	mu := rt.NewMutex()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i += 64 {
		for j := 0; j < 64; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if mu.Lock() == nil {
					_ = mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	rt.Monitor().Pass() // the backlog is not retention
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := rt.NumThreads()
	runtime.KeepAlive(mu)
	if err := rt.Stop(); err != nil {
		return 0, err
	}
	if live == 0 {
		return 0, fmt.Errorf("ladder: no implicit thread stayed registered")
	}
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(live), nil
}

// monitorPass times Monitor.Pass on a quiesced default runtime holding one
// slice's backlog: the monitor is started with a period it never reaches, a
// slice of the workload's traffic runs, and the pass is made by hand.
func monitorPass(w *workload, in ladderInput, samples int) (float64, error) {
	opts := append(w.initOptions(in.histPath), dimmunix.WithTau(time.Hour))
	if err := dimmunix.Init(opts...); err != nil {
		return 0, err
	}
	svc := newDimmunixService(numCells, numRows)
	svc.touchAll()
	pool := newClientPool(w, svc, numClients, in.seed, 5)
	mon := dimmunix.Default().Monitor()
	mon.Pass()
	var passes []float64
	for i := 0; i < samples; i++ {
		pool.runSlice(sliceLength, 0, false)
		t0 := time.Now()
		mon.Pass()
		passes = append(passes, float64(time.Since(t0)))
	}
	pool.stop()
	return median(passes) / 1e3, dimmunix.Shutdown()
}

// procStatusMB reads a kB field of /proc/self/status in MB (0 if absent).
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
