package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix/internal/avoidance"
	"dimmunix/internal/event"
	"dimmunix/internal/gid"
	"dimmunix/internal/histstore"
	"dimmunix/internal/monitor"
	"dimmunix/internal/obs"
	"dimmunix/internal/queue"
	"dimmunix/internal/signature"
	"dimmunix/internal/sigport"
	"dimmunix/internal/stack"
	"dimmunix/internal/trace"
)

// threadShards is the fixed shard count of the runtime's goroutine-ID and
// thread-ID tables. Sharding keeps implicit-identity lookups
// (CurrentThread) from serializing on one map lock at high parallelism.
const threadShards = 64

type gidShard struct {
	mu sync.RWMutex
	m  map[uint64]*Thread
}

type idShard struct {
	mu sync.RWMutex
	m  map[int32]*Thread
}

// Runtime is one Dimmunix instance: a history, an avoidance cache, an
// event queue, and a monitor goroutine, serving any number of threads and
// mutexes. A process typically has one Runtime, but tests and benchmarks
// may run several in isolation.
type Runtime struct {
	cfg      Config
	interner *stack.Interner
	pcCache  *stack.PCCache // the call-site table: raw PC stack -> interned stack
	hist     *signature.History
	store    histstore.Store // nil = in-memory-only history
	ownStore bool            // the runtime opened store and closes it on Stop
	q        *queue.MPSC[event.Event]
	cache    *avoidance.Cache
	mon      *monitor.Monitor
	stats    *avoidance.Stats
	trace    *trace.Recorder // nil unless Config.TracePath armed trace mode

	// wrapDepth is the deepest ladder of Dimmunix's own frames observed
	// between an application lock call site and the capture (see
	// Thread.internPCs, which folds every stack it resolves into it). The
	// capture bounds are derived from it instead of a guessed slack.
	wrapDepth atomic.Int32

	// bus is the observability dispatcher (typed events, bounded,
	// non-blocking); see Subscribe and Config.Observers.
	bus *obs.Bus

	// Runtime-level observability counters (see StatsSnapshot).
	threadPrunes atomic.Uint64
	recoveries   atomic.Uint64
	disables     atomic.Uint64

	// Acquisition-latency histograms (log-scale, fixed buckets; see
	// StatsSnapshot.Latency). Guarded acquisitions and yield episodes
	// record every observation — they are already slow paths — while the
	// fast tier records a 1-in-64 per-thread sample so the steady-state
	// path never pays two timestamp reads per operation.
	latFast    obs.Histogram
	latGuarded obs.Histogram
	latYield   obs.Histogram

	gidTab   [threadShards]gidShard
	idTab    [threadShards]idShard
	nThreads atomic.Int64
	nextTID  atomic.Int32

	// sweep is the coarse idle clock: bumped once per janitor sweep (or
	// PruneIdleThreads call) and stamped into Thread.lastUse on every
	// implicit-identity lookup.
	sweep atomic.Int64

	stopped     atomic.Bool
	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New creates and starts a Runtime (resolves and loads the history
// store, launches the monitor and — when a shared store is configured —
// its sync loop).
func New(cfg Config) (*Runtime, error) { return NewLab(cfg, Lab{}) }

// NewLab is New with the lab knobs set.
func NewLab(cfg Config, lab Lab) (*Runtime, error) {
	// Every implicit operation keys its thread on the goroutine ID; with
	// none available all goroutines would share one never-pruned thread.
	if gid.Current() == 0 {
		return nil, errors.New("dimmunix: goroutine identity unavailable: this Go runtime's goroutine IDs can be neither read nor parsed")
	}
	if cfg.MatchDepth > stack.MaxCaptureDepth {
		return nil, fmt.Errorf("dimmunix: MatchDepth %d exceeds the %d frames one capture can hold",
			cfg.MatchDepth, stack.MaxCaptureDepth)
	}
	cfg.fill(lab)

	// Resolve the immunity store: explicit > spec (env plumbing) >
	// legacy single file > in-memory only.
	var (
		store    histstore.Store
		ownStore bool
		err      error
	)
	switch {
	case cfg.HistoryStore != nil:
		store = cfg.HistoryStore
	case cfg.HistorySync != "":
		store, err = histstore.Open(cfg.HistorySync)
		if err != nil {
			return nil, err
		}
		ownStore = true
	case cfg.HistoryPath != "":
		store = histstore.NewFileStore(cfg.HistoryPath)
		ownStore = true
	}

	hist := signature.NewHistory()
	if store != nil {
		// The startup load runs under a background context: the HTTP
		// backend applies its own fallback deadline, so even a dead
		// daemon cannot block process start beyond it.
		hist, _, err = store.Load(context.Background())
		if err != nil {
			if _, netStore := store.(*histstore.HTTPStore); netStore {
				// An unreachable sync daemon must not keep the application
				// from starting (daemon restarts are routine): begin with
				// an empty history and let the sync loop converge once the
				// daemon is back. File corruption, in contrast, stays
				// fail-fast below.
				hist = signature.NewHistory()
			} else {
				if ownStore {
					store.Close()
				}
				return nil, err
			}
		}
		if len(cfg.SyncPortRules) > 0 && cfg.BuildFingerprint != "" &&
			hist.Fingerprint() != "" && hist.Fingerprint() != cfg.BuildFingerprint {
			// The store was last written by a different build: port the
			// initial snapshot the same way sync pulls are ported (§8).
			hist, _ = sigport.Port(hist, cfg.SyncPortRules)
		}
	}
	hist.SetFingerprint(cfg.BuildFingerprint)

	// Trace mode: the recorder journals every drained acquisition event
	// for offline prediction. Opened before the monitor exists so the
	// very first pass can record; a path that cannot be opened is a
	// configuration error, fail-fast like history-file corruption.
	var rec *trace.Recorder
	if cfg.TracePath != "" {
		rec, err = trace.NewRecorder(cfg.TracePath, cfg.BuildFingerprint, trace.DefaultMaxBytes)
		if err != nil {
			if ownStore {
				store.Close()
			}
			return nil, err
		}
	}

	// The sync loop defaults on only for explicitly shared stores; a
	// plain HistoryPath keeps the single-process cadence (archive-time
	// and Stop-time pushes, manual ReloadHistory pulls).
	syncInterval := cfg.SyncInterval
	if syncInterval == 0 && (cfg.HistoryStore != nil || cfg.HistorySync != "") {
		syncInterval = DefaultSyncInterval
	}
	if syncInterval < 0 || store == nil {
		syncInterval = 0
	}

	rt := &Runtime{
		cfg:      cfg,
		interner: stack.NewInterner(),
		pcCache:  stack.NewPCCache(),
		hist:     hist,
		store:    store,
		ownStore: ownStore,
		q:        queue.New[event.Event](),
		stats:    &avoidance.Stats{},
		trace:    rec,
		bus:      obs.New(lab.EventBuffer, cfg.Observers),
	}
	// Every history mutation — archive, disable/enable, removal, sync
	// merge, reload — feeds the observability stream (and the disable
	// counter), wired before any traffic can mutate the history. The
	// hook runs under the history lock; bus publishes never block.
	hist.SetNotify(func(ch signature.Change) {
		switch ch.Op {
		case "disable":
			rt.disables.Add(1)
			if rt.bus.Active() {
				rt.bus.Publish(obs.SignatureDisabled{SigID: ch.SigID, Disabled: true})
			}
		case "enable":
			if rt.bus.Active() {
				rt.bus.Publish(obs.SignatureDisabled{SigID: ch.SigID, Disabled: false})
			}
		}
		if rt.bus.Active() {
			rt.bus.Publish(obs.HistoryChanged{
				Op: ch.Op, SigID: ch.SigID, Epoch: ch.Epoch, Signatures: ch.Signatures,
			})
		}
	})
	for i := range rt.gidTab {
		rt.gidTab[i].m = make(map[uint64]*Thread)
	}
	for i := range rt.idTab {
		rt.idTab[i].m = make(map[int32]*Thread)
	}

	rt.cache = avoidance.NewCache(avoidance.Config{
		DisableFastPath: lab.DisableFastPath,
		Mode:            cfg.avoidanceMode(),
		IgnoreDecisions: lab.IgnoreDecisions,
		ProbeDepth:      lab.ProbeDepth,
		DiscardObsolete: cfg.DiscardObsolete,
		Bus:             rt.bus,
	}, rt.interner, hist, rt.stats, rt.q.Push)

	onDeadlock := cfg.OnDeadlock
	if cfg.RecoverAborts {
		user := cfg.OnDeadlock
		onDeadlock = func(info monitor.DeadlockInfo) {
			rt.AbortThreads(info.ThreadIDs...)
			rt.recoveries.Add(1)
			if rt.bus.Active() {
				ev := obs.RecoveryAborted{ThreadIDs: info.ThreadIDs}
				if info.Sig != nil {
					ev.SigID = info.Sig.ID
				}
				rt.bus.Publish(ev)
			}
			if user != nil {
				user(info)
			}
		}
	}

	rt.mon = monitor.New(monitor.Config{
		Tau:              cfg.Tau,
		Strong:           cfg.Immunity == StrongImmunity,
		MatchDepth:       cfg.MatchDepth,
		Calibrate:        cfg.Calibrate,
		CalibMaxDepth:    lab.CalibMaxDepth,
		CalibNA:          lab.CalibNA,
		CalibNT:          lab.CalibNT,
		Store:            store,
		SyncInterval:     syncInterval,
		SyncRoundTimeout: cfg.SyncRoundTimeout,
		PortRules:        cfg.SyncPortRules,
		Fingerprint:      cfg.BuildFingerprint,
		Trace:            rec,
		OnDeadlock:       onDeadlock,
		OnStarvation:     cfg.OnStarvation,
		Bus:              rt.bus,
	}, rt.q, hist, rt.cache, rt.resolveThreadState)

	if cfg.Mode != ModeOff {
		rt.mon.Start()
	}
	if cfg.ThreadTTL > 0 {
		rt.janitorStop = make(chan struct{})
		rt.janitorDone = make(chan struct{})
		// Sweeping every TTL with a one-sweep idle requirement prunes a
		// thread between TTL and 2×TTL after its last use — never sooner
		// than the documented TTL. Runs in every mode: ModeOff tracks
		// holds via ThreadState.NoteHold so quiescence stays provable.
		go rt.janitor(cfg.ThreadTTL)
	}
	return rt, nil
}

// MustNew is New that panics on error (for examples and tests).
func MustNew(cfg Config) *Runtime { return MustNewLab(cfg, Lab{}) }

// MustNewLab is NewLab that panics on error.
func MustNewLab(cfg Config, lab Lab) *Runtime {
	rt, err := NewLab(cfg, lab)
	if err != nil {
		panic(err)
	}
	return rt
}

// Stop shuts the monitor down (after a final pass, cancelling any sync
// round still blocked in store I/O) and publishes the history through
// the store under the shutdown budget: when the store is unreachable,
// the publish is abandoned after Config.ShutdownTimeout instead of
// stalling the host process — earlier pushes and the local store state
// keep the immunity, and Stop returns the publish error so callers can
// observe the abandoned durability.
func (rt *Runtime) Stop() error {
	if !rt.stopped.CompareAndSwap(false, true) {
		return nil
	}
	if rt.janitorStop != nil {
		close(rt.janitorStop)
		<-rt.janitorDone
	}
	if rt.cfg.Mode != ModeOff {
		rt.mon.Stop()
	}
	var err error
	// After the monitor's final pass: every drained event has been
	// recorded, so the journal is complete when it closes.
	if rt.trace != nil {
		err = rt.trace.Close()
	}
	if rt.store != nil {
		ctx := context.Background()
		if rt.cfg.ShutdownTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, rt.cfg.ShutdownTimeout)
			defer cancel()
		}
		if perr := rt.mon.PublishToStore(ctx); err == nil {
			err = perr
		}
		if rt.ownStore {
			if cerr := rt.store.Close(); err == nil {
				err = cerr
			}
		}
	}
	// Last: the bus delivers the shutdown-path events (final sync round,
	// stop-time archives) best-effort, then closes every subscriber
	// channel. Stop never waits on observer code.
	rt.bus.Stop()
	return err
}

// History exposes the signature history.
func (rt *Runtime) History() *signature.History { return rt.hist }

// HistoryStore exposes the resolved immunity store (nil when the history
// is in-memory only).
func (rt *Runtime) HistoryStore() histstore.Store { return rt.store }

// Monitor exposes the monitor (Kick for tests/tools).
func (rt *Runtime) Monitor() *monitor.Monitor { return rt.mon }

// MonitorCounters returns the monitor-side counters.
func (rt *Runtime) MonitorCounters() *monitor.Counters { return &rt.mon.Counters }

// Config returns the runtime's effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// SyncNow performs one synchronous pull→merge→push round against the
// history store — the §8 "patch without restarting" path, now a
// deterministic revision join: remote additions, removals (tombstones),
// and disabled-flips all take effect on the next lock request, and local
// changes are published back. The round runs under the caller's context:
// cancel it (or let its deadline pass) and the store I/O aborts with the
// context's error. Returns an error when the runtime has no store.
func (rt *Runtime) SyncNow(ctx context.Context) error {
	if rt.store == nil {
		return errors.New("dimmunix: runtime has no history store")
	}
	return rt.mon.SyncNow(ctx)
}

// ReloadHistory is the historical name for SyncNow: re-read the backing
// store and fold its state into the live signature set, cancellable
// through ctx like any other sync round.
//
// Semantics changed with format v2: the fold is a merge (revision join),
// not the old file-wins replacement. Deleting a signature by hand-editing
// the file leaves no tombstone, so the live entry survives the merge and
// the next push writes it back — remove signatures through
// History.Remove or `dimmunix-hist remove` instead, which record a
// tombstone that propagates.
func (rt *Runtime) ReloadHistory(ctx context.Context) error { return rt.SyncNow(ctx) }

// RegisterThread creates an explicit thread handle — the fast-path
// identity API. name is for diagnostics only and may be empty. Explicit
// handles are never pruned; release them with Thread.Close.
func (rt *Runtime) RegisterThread(name string) *Thread {
	id := rt.nextTID.Add(1)
	t := &Thread{
		rt:    rt,
		ts:    rt.cache.NewThread(id, 0, name),
		abort: make(chan struct{}),
	}
	sh := &rt.idTab[uint32(id)%threadShards]
	sh.mu.Lock()
	sh.m[id] = t
	sh.mu.Unlock()
	rt.nThreads.Add(1)
	return t
}

// CurrentThread returns the calling goroutine's thread handle,
// registering it on first use — the implicit identity API. A call costs
// a goroutine-ID read (a few ns once gid has armed; see gid.Mode) plus a
// sharded table lookup, so holding a *Thread saves little on hot paths.
//
// Every core lock/unlock/wait operation pins its thread for its whole
// duration (including blocked waits), and the idle pruner never touches
// a pinned thread or one holding any lock — so a handle in active use is
// safe. With pruning active (Config.ThreadTTL), do not cache a handle
// across long idle stretches while holding nothing: the pruner may
// retire it between operations. Re-resolve via CurrentThread (cheap) or
// use RegisterThread (never pruned) instead.
func (rt *Runtime) CurrentThread() *Thread {
	t := rt.currentPinned()
	t.unpin()
	return t
}

// currentPinned resolves (or registers) the calling goroutine's thread
// and returns it pinned: the pruner will not retire a pinned thread. The
// caller must unpin when its operation completes.
func (rt *Runtime) currentPinned() *Thread {
	g := gid.Current()
	sh := &rt.gidTab[g%threadShards]
	for {
		sh.mu.RLock()
		t := sh.m[g]
		sh.mu.RUnlock()
		if t == nil {
			t = rt.RegisterThread("")
			t.gid = g
			t.lastUse.Store(rt.sweep.Load())
			t.pins.Add(1)
			sh.mu.Lock()
			sh.m[g] = t
			sh.mu.Unlock()
			return t
		}
		// Dekker with the pruner: stamp use, pin, then verify the thread
		// was not concurrently retired. The pruner sets retired first and
		// re-checks pins/lastUse after, so at least one side observes the
		// other.
		t.lastUse.Store(rt.sweep.Load())
		t.pins.Add(1)
		if !t.retired.Load() {
			return t
		}
		t.pins.Add(-1)
		// The pruner won; it is removing t from the table. Retry (and
		// re-register once the removal lands).
		runtime.Gosched()
	}
}

// ThreadByID resolves a thread handle from its Dimmunix ID, or nil.
func (rt *Runtime) ThreadByID(id int32) *Thread {
	sh := &rt.idTab[uint32(id)%threadShards]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.m[id]
}

func (rt *Runtime) resolveThreadState(id int32) *avoidance.ThreadState {
	if t := rt.ThreadByID(id); t != nil {
		return t.ts
	}
	return nil
}

// AbortThreads aborts the pending or future lock waits of the given
// threads, making their Lock calls return ErrDeadlockRecovered. This is
// the building block recovery hooks use to emulate the paper's restart
// (§3: recovery is orthogonal; the hook is the extension point).
func (rt *Runtime) AbortThreads(ids ...int32) {
	for _, id := range ids {
		if t := rt.ThreadByID(id); t != nil {
			t.signalAbort()
		}
	}
}

// removeThread detaches a thread from the registry and cleans its
// avoidance state. Idempotent: the explicit Close path and the pruner may
// race, and exactly one side wins.
func (rt *Runtime) removeThread(t *Thread) {
	if !t.released.CompareAndSwap(false, true) {
		return
	}
	if rt.cfg.Mode != ModeOff {
		rt.cache.ThreadExit(t.ts)
	}
	ish := &rt.idTab[uint32(t.ts.ID)%threadShards]
	ish.mu.Lock()
	delete(ish.m, t.ts.ID)
	ish.mu.Unlock()
	if t.gid != 0 {
		gsh := &rt.gidTab[t.gid%threadShards]
		gsh.mu.Lock()
		// The goroutine may have re-registered after a prune; only remove
		// the mapping if it still names this handle.
		if gsh.m[t.gid] == t {
			delete(gsh.m, t.gid)
		}
		gsh.mu.Unlock()
	}
	rt.nThreads.Add(-1)
}

// NumThreads reports the number of live registered threads.
func (rt *Runtime) NumThreads() int {
	return int(rt.nThreads.Load())
}

// LiveThreadIDs returns the IDs of every live registered thread, for
// diagnostics and abort-all recovery sweeps.
func (rt *Runtime) LiveThreadIDs() []int32 {
	var ids []int32
	for i := range rt.idTab {
		sh := &rt.idTab[i]
		sh.mu.RLock()
		for id := range sh.m {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	return ids
}

// janitor periodically retires idle implicit threads (Config.ThreadTTL).
func (rt *Runtime) janitor(interval time.Duration) {
	defer close(rt.janitorDone)
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-rt.janitorStop:
			return
		case <-tick.C:
			rt.PruneIdleThreads()
		}
	}
}

// PruneIdleThreads advances the idle clock one sweep and retires every
// implicitly-registered thread that is quiescent (holds nothing, waits
// for nothing) and has not been used since before the previous sweep —
// i.e. idle for at least one full sweep interval. Explicit RegisterThread
// handles are untouched. Returns the number of threads pruned.
//
// The janitor calls this every ThreadTTL (so a thread is pruned between
// one and two TTLs after its last use); tests and servers that just
// drained a goroutine flood may call it directly (twice, for brand-new
// idle threads) to reclaim them immediately.
func (rt *Runtime) PruneIdleThreads() int {
	cutoff := rt.sweep.Add(1) - 2
	pruned := 0
	for i := range rt.gidTab {
		sh := &rt.gidTab[i]
		sh.mu.RLock()
		var cands []*Thread
		for _, t := range sh.m {
			if t.pins.Load() == 0 && t.lastUse.Load() <= cutoff && t.ts.LiveHolds() == 0 {
				cands = append(cands, t)
			}
		}
		sh.mu.RUnlock()
		for _, t := range cands {
			if rt.pruneThread(t, cutoff) {
				pruned++
			}
		}
	}
	rt.threadPrunes.Add(uint64(pruned))
	return pruned
}

// pruneThread retires one idle implicit thread using a set-then-verify
// protocol against concurrent CurrentThread lookups (which stamp lastUse
// and pin before reading the retired flag).
func (rt *Runtime) pruneThread(t *Thread, cutoff int64) bool {
	if t.gid == 0 || !t.retired.CompareAndSwap(false, true) {
		return false
	}
	if t.pins.Load() != 0 || t.lastUse.Load() > cutoff ||
		t.ts.LiveHolds() != 0 || !rt.cache.ThreadQuiescent(t.ts) {
		t.retired.Store(false)
		return false
	}
	rt.removeThread(t)
	return true
}

// LastAvoided returns the most recently avoided signature, or nil. This
// is the hook for §5.7's user flow: when an avoidance suppresses wanted
// functionality, the user can disable the responsible signature the way
// they would allow a blocked pop-up.
func (rt *Runtime) LastAvoided() *signature.Signature {
	return rt.cache.LastAvoided()
}

// DisableLastAvoided disables the most recently avoided signature and
// reports whether there was one. The signature stays in the history but
// is never avoided again (until re-enabled via the history tooling).
func (rt *Runtime) DisableLastAvoided() bool {
	sig := rt.cache.LastAvoided()
	if sig == nil {
		return false
	}
	return rt.hist.SetDisabled(sig.ID, true)
}

// CapturedStacks returns every distinct call stack recorded at lock
// operations so far: exact ones, except that safe call paths alike in the
// innermost frames a verdict depends on (see Thread.captureClassified)
// are recorded as the first of them seen. The §7.2.1 methodology
// synthesizes histories from "random combinations of real program stacks
// with which the target system performs synchronization"; this is that
// sampling hook.
func (rt *Runtime) CapturedStacks() []stack.Stack {
	snap := rt.interner.Snapshot()
	out := make([]stack.Stack, 0, len(snap))
	for _, in := range snap {
		out = append(out, in.S.Clone())
	}
	return out
}
