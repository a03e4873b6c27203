// Package monitor implements Dimmunix's monitor thread (§3, §5.2): it
// wakes every τ milliseconds, drains the lock-free event queue, updates
// the resource allocation graph, searches for deadlock and yield cycles,
// archives new signatures to the persistent history, breaks induced
// starvation (weak immunity) or requests a restart (strong immunity), and
// drives the false-positive / calibration machinery.
package monitor

import (
	"sync"
	"sync/atomic"
	"time"

	"dimmunix/internal/avoidance"
	"dimmunix/internal/calib"
	"dimmunix/internal/event"
	"dimmunix/internal/fpdetect"
	"dimmunix/internal/histstore"
	"dimmunix/internal/obs"
	"dimmunix/internal/queue"
	"dimmunix/internal/rag"
	"dimmunix/internal/signature"
	"dimmunix/internal/sigport"
	"dimmunix/internal/stack"
	"dimmunix/internal/trace"
)

// DefaultTau is the monitor wakeup period; §7 uses 100 ms.
const DefaultTau = 100 * time.Millisecond

// DeadlockInfo describes a detected deadlock, passed to the recovery hook
// right after the signature is saved (§3).
type DeadlockInfo struct {
	Sig       *signature.Signature
	New       bool // true if this signature was first seen now
	ThreadIDs []int32
	LockIDs   []uint64
}

// StarvationInfo describes a detected yield cycle.
type StarvationInfo struct {
	Sig       *signature.Signature
	New       bool
	ThreadIDs []int32
	VictimTID int32 // thread whose yield was broken (weak immunity)
}

// Config parametrizes the monitor.
type Config struct {
	// Tau is the wakeup period (default 100 ms).
	Tau time.Duration
	// Strong selects strong immunity: starvation triggers the restart
	// hook instead of breaking the yield cycle (§5.4).
	Strong bool
	// MatchDepth is the depth stored in newly captured signatures.
	MatchDepth int
	// Calibrate arms the §5.5 depth-calibration ladder on new
	// signatures.
	Calibrate     bool
	CalibMaxDepth int
	CalibNA       int
	CalibNT       uint64
	// EpisodeOpLimit bounds each FP episode's operation log.
	EpisodeOpLimit int
	// EpisodeMaxTicks force-concludes an episode after this many passes.
	EpisodeMaxTicks int
	// SuppressTicks suppresses re-handling of an identical persisting
	// cycle for this many passes.
	SuppressTicks int

	// Store, when non-nil, is the shared immunity store the monitor
	// persists to and syncs with (§8 distribution). Newly archived
	// signatures are pushed through it; with SyncInterval > 0 a sync
	// loop also pulls remote changes (new signatures, removals,
	// disabled-flips) into the live history.
	Store histstore.Store
	// SyncInterval is the pull→merge→push cadence (0 disables the loop;
	// Store pushes then happen synchronously on archive and on SyncNow).
	SyncInterval time.Duration
	// SyncRoundTimeout bounds one sync round's store I/O; a round that
	// cannot finish within it is abandoned and retried with backoff
	// (0 selects DefaultSyncRoundTimeout, negative disables the bound).
	SyncRoundTimeout time.Duration
	// PortRules, when set, are applied to pulled snapshots whose build
	// fingerprint differs from Fingerprint (§8 porting across
	// revisions).
	PortRules []sigport.Rule
	// Fingerprint identifies this build (signature.BuildFingerprint).
	Fingerprint string

	// OnDeadlock is the §3 recovery hook.
	OnDeadlock func(DeadlockInfo)
	// OnStarvation is informational in weak mode; in strong mode it is
	// the restart hook.
	OnStarvation func(StarvationInfo)

	// Trace, when non-nil, receives every drained acquisition event —
	// including fast-tier operations, which bypass avoidance but still
	// enqueue — so offline analysis (dimmunix-predict) sees the complete
	// lock-order behavior. Recording happens here, on the monitor
	// goroutine, precisely so the lock path pays nothing for it.
	Trace *trace.Recorder

	// Bus, when non-nil, receives the monitor's observability events
	// (DeadlockDetected, SignatureArchived, StarvationAverted,
	// SyncRoundDone). The hooks above stay synchronous direct calls —
	// recovery is control flow and must never be dropped by a bounded
	// ring — while the bus carries the same information as telemetry.
	Bus *obs.Bus
}

func (c *Config) fill() {
	if c.Tau <= 0 {
		c.Tau = DefaultTau
	}
	if c.MatchDepth <= 0 {
		c.MatchDepth = signature.DefaultDepth
	}
	if c.EpisodeOpLimit <= 0 {
		c.EpisodeOpLimit = fpdetect.DefaultOpLimit
	}
	if c.EpisodeMaxTicks <= 0 {
		c.EpisodeMaxTicks = 20
	}
	if c.SuppressTicks <= 0 {
		c.SuppressTicks = 50
	}
	if c.SyncRoundTimeout == 0 {
		c.SyncRoundTimeout = DefaultSyncRoundTimeout
	}
	if c.SyncRoundTimeout < 0 {
		c.SyncRoundTimeout = 0 // unbounded
	}
}

// Counters aggregates monitor-side statistics.
type Counters struct {
	Passes              atomic.Uint64
	EventsProcessed     atomic.Uint64
	DeadlocksDetected   atomic.Uint64
	StarvationsDetected atomic.Uint64
	SignaturesSaved     atomic.Uint64
	StarvationsBroken   atomic.Uint64
	EpisodesConcluded   atomic.Uint64
	FalsePositives      atomic.Uint64
	TruePositives       atomic.Uint64
	// Sync loop statistics (history store distribution).
	SyncRounds   atomic.Uint64 // completed rounds (loop, kicks, SyncNow)
	SyncPulls    atomic.Uint64 // rounds that merged remote changes in
	SyncPushes   atomic.Uint64 // rounds that published local changes
	SyncCovered  atomic.Uint64 // rounds whose pull held all the local history did: no push
	SyncPorted   atomic.Uint64 // pulled snapshots run through sigport
	SyncErrors   atomic.Uint64 // store errors (retried next round)
	SyncBackoffs atomic.Uint64 // loop delays stretched by failure backoff
}

// episode pairs an fpdetect episode with the instance needed to replay the
// match at other depths.
type episode struct {
	ep           *fpdetect.Episode
	yielderStack *stack.Interned
	yielderIdx   int
	bindings     []avoidance.BindingRecord
	startTick    int
}

// Monitor is the asynchronous detector. Create with New, start with
// Start, stop with Stop. Pass may be called directly in tests (never
// concurrently with a running loop).
type Monitor struct {
	cfg     Config
	q       *queue.MPSC[event.Event]
	g       *rag.RAG
	hist    *signature.History
	cache   *avoidance.Cache
	resolve func(int32) *avoidance.ThreadState

	episodes   []*episode
	suppressed map[uint64]int
	tick       int

	Counters Counters

	// sync is the store distribution state (nil without a store); syncMu
	// guards only the syncer's lastSeen/lastPushed bookkeeping — it is
	// never held across store I/O, so an unresponsive store cannot block
	// anything queued on it (rounds overlap safely: they are joins).
	// syncRunning is read from the monitor goroutine and arbitrary
	// KickSync callers while Start/Stop flip it — atomic.
	sync        *syncer
	syncMu      sync.Mutex
	syncRunning atomic.Bool

	mu      sync.Mutex // serializes Pass between loop and Kick/Stop
	stopCh  chan struct{}
	kickCh  chan struct{}
	doneCh  chan struct{}
	started bool
}

// New builds a monitor. resolve maps thread IDs to live cache thread
// states (for starvation breaking) and may return nil for exited threads.
func New(cfg Config, q *queue.MPSC[event.Event], hist *signature.History, cache *avoidance.Cache, resolve func(int32) *avoidance.ThreadState) *Monitor {
	cfg.fill()
	m := &Monitor{
		cfg:        cfg,
		q:          q,
		g:          rag.New(),
		hist:       hist,
		cache:      cache,
		resolve:    resolve,
		suppressed: make(map[uint64]int),
		stopCh:     make(chan struct{}),
		kickCh:     make(chan struct{}, 1),
		doneCh:     make(chan struct{}),
	}
	if cfg.Store != nil {
		m.sync = newSyncer(cfg.Store, cfg.PortRules, cfg.Fingerprint)
	}
	return m
}

// Start launches the monitor goroutine (and the store sync loop when
// configured).
func (m *Monitor) Start() {
	if m.started {
		return
	}
	m.started = true
	if m.sync != nil && m.cfg.SyncInterval > 0 {
		// Before the monitor loop starts: its first pass may archive and
		// consult syncRunning in persistArchive.
		m.syncRunning.Store(true)
		go m.syncLoop(m.cfg.SyncInterval)
	}
	go m.loop()
}

// Stop terminates the loop after a final pass (so late events are still
// processed) and waits for it to exit, then stops the sync loop,
// cancelling any round still blocked in store I/O — Stop never waits out
// a store outage. Publishing what the final pass archived is the owner's
// job (Runtime.Stop calls PublishToStore under its bounded shutdown
// context).
func (m *Monitor) Stop() {
	if !m.started {
		return
	}
	close(m.stopCh)
	<-m.doneCh
	if m.syncRunning.Load() {
		m.sync.cancelRounds()
		close(m.sync.stopCh)
		<-m.sync.doneCh
		m.syncRunning.Store(false)
	}
	m.started = false
}

// Kick requests an immediate pass (tests and interactive tools; the
// production cadence is τ).
func (m *Monitor) Kick() {
	select {
	case m.kickCh <- struct{}{}:
	default:
	}
}

func (m *Monitor) loop() {
	defer close(m.doneCh)
	ticker := time.NewTicker(m.cfg.Tau)
	defer ticker.Stop()
	for {
		select {
		case <-m.stopCh:
			m.Pass()
			return
		case <-m.kickCh:
			m.Pass()
		case <-ticker.C:
			m.Pass()
		}
	}
}

// Pass performs one monitor iteration: drain, update RAG, detect, react.
func (m *Monitor) Pass() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	m.Counters.Passes.Add(1)

	// Steal every thread's batched bookkeeping events before draining, so
	// batching never hides an operation from this pass's detection.
	if m.cache != nil {
		m.cache.FlushBuffers()
	}
	extra := 0
	n := m.q.Drain(func(ev event.Event) {
		if ev.Kind == event.Batch {
			// Unpack in order; each record inherits the carrier's thread.
			for _, r := range *ev.Recs {
				m.applyOne(event.Event{Kind: r.Kind, TID: ev.TID, LID: r.LID, Stack: r.Stack})
			}
			extra += len(*ev.Recs) - 1
			event.PutRecs(ev.Recs)
			return
		}
		m.applyOne(ev)
	})
	m.Counters.EventsProcessed.Add(uint64(n + extra))

	m.ageEpisodes()

	cycles := m.g.Detect()
	for _, c := range cycles {
		m.handleCycle(c)
	}
	m.pruneSuppressed()
}

// applyOne feeds one (possibly batch-unpacked) event through the RAG,
// episode tracking, and the trace recorder.
func (m *Monitor) applyOne(ev event.Event) {
	m.g.Apply(ev)
	m.feedEpisodes(ev)
	if ev.Kind == event.Yield {
		m.startEpisode(ev)
	}
	if m.cfg.Trace != nil {
		m.cfg.Trace.Record(ev)
	}
}

// startEpisode begins retrospective FP tracking for one avoidance.
func (m *Monitor) startEpisode(ev event.Event) {
	involved := make([]int32, 0, len(ev.Causes))
	bindings := make([]avoidance.BindingRecord, 0, len(ev.Causes))
	for _, c := range ev.Causes {
		involved = append(involved, c.TID)
		bindings = append(bindings, avoidance.BindingRecord{
			TID: c.TID, LID: c.LID, Stack: c.Stack, SigIdx: c.SigIdx,
		})
	}
	m.episodes = append(m.episodes, &episode{
		ep:           fpdetect.NewEpisode(ev.SigID, ev.Depth, ev.TID, involved, m.cfg.EpisodeOpLimit),
		yielderStack: ev.Stack,
		yielderIdx:   ev.YielderIdx,
		bindings:     bindings,
		startTick:    m.tick,
	})
}

func (m *Monitor) feedEpisodes(ev event.Event) {
	if ev.Kind != event.Acquired && ev.Kind != event.Release {
		return
	}
	op := fpdetect.Op{TID: ev.TID, LID: ev.LID, Acquire: ev.Kind == event.Acquired}
	keep := m.episodes[:0]
	for _, e := range m.episodes {
		if e.ep.Record(op) {
			m.concludeEpisode(e)
			continue
		}
		keep = append(keep, e)
	}
	m.episodes = keep
}

func (m *Monitor) ageEpisodes() {
	keep := m.episodes[:0]
	for _, e := range m.episodes {
		if m.tick-e.startTick >= m.cfg.EpisodeMaxTicks {
			m.concludeEpisode(e)
			continue
		}
		keep = append(keep, e)
	}
	m.episodes = keep
}

func (m *Monitor) concludeEpisode(e *episode) {
	fp := e.ep.Verdict()
	m.Counters.EpisodesConcluded.Add(1)
	if fp {
		m.Counters.FalsePositives.Add(1)
	} else {
		m.Counters.TruePositives.Add(1)
	}
	m.cache.RecordOutcome(e.ep.SigID, e.ep.Depth, fp, e.yielderStack, e.yielderIdx, e.bindings)
}

// cycleKey hashes the cycle's shape for suppression of re-reports.
func cycleKey(c *rag.Cycle) uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	if c.Starvation {
		mix(1)
	}
	for _, t := range c.Threads {
		mix(uint64(uint32(t)))
	}
	for _, l := range c.Locks {
		mix(l)
	}
	return h
}

func (m *Monitor) handleCycle(c *rag.Cycle) {
	key := cycleKey(c)
	if last, ok := m.suppressed[key]; ok && m.tick-last < m.cfg.SuppressTicks {
		return
	}
	m.suppressed[key] = m.tick

	stacks := make([]stack.Stack, 0, len(c.Stacks))
	for _, in := range c.Stacks {
		stacks = append(stacks, in.S)
	}
	kind := signature.Deadlock
	if c.Starvation {
		kind = signature.Starvation
	}
	sig := signature.New(kind, stacks, m.cfg.MatchDepth)
	if m.cfg.Calibrate {
		sig.Calib = calib.NewState(m.cfg.CalibMaxDepth, m.cfg.CalibNA, m.cfg.CalibNT)
	}
	isNew := m.hist.Add(sig)
	if isNew {
		m.Counters.SignaturesSaved.Add(1)
		if m.cfg.Bus.Active() {
			m.cfg.Bus.Publish(obs.SignatureArchived{
				SigID: sig.ID, Kind: sig.Kind.String(), Depth: sig.Depth, Stacks: sig.Size(),
			})
		}
		m.persistArchive()
	} else {
		sig = m.hist.Get(sig.ID)
	}

	if c.Starvation {
		m.Counters.StarvationsDetected.Add(1)
		victim := m.breakStarvation(c)
		if m.cfg.Bus.Active() {
			m.cfg.Bus.Publish(obs.StarvationAverted{
				SigID: sig.ID, New: isNew, ThreadIDs: c.Threads, VictimTID: victim,
			})
		}
		if m.cfg.OnStarvation != nil {
			m.cfg.OnStarvation(StarvationInfo{
				Sig: sig, New: isNew, ThreadIDs: c.Threads, VictimTID: victim,
			})
		}
		return
	}

	m.Counters.DeadlocksDetected.Add(1)
	if m.cfg.Bus.Active() {
		m.cfg.Bus.Publish(obs.DeadlockDetected{
			SigID: sig.ID, New: isNew, ThreadIDs: c.Threads, LockIDs: c.Locks,
		})
	}
	if m.cfg.OnDeadlock != nil {
		m.cfg.OnDeadlock(DeadlockInfo{
			Sig: sig, New: isNew, ThreadIDs: c.Threads, LockIDs: c.Locks,
		})
	}
}

// breakStarvation implements the §3 weak-immunity break: cancel the yield
// of the starved (yielding) thread holding the most locks, freeing it to
// pursue its most recently requested lock. Thread priority (the §8
// extension) takes precedence, so a high-priority thread is freed before
// a lower-priority one holding more locks. In strong mode the restart
// hook is responsible instead, so no break happens here.
func (m *Monitor) breakStarvation(c *rag.Cycle) int32 {
	if m.cfg.Strong {
		return 0
	}
	var victim int32
	bestHolds := -1
	bestPrio := int32(-1 << 30)
	for _, tid := range c.Threads {
		tn := m.g.Thread(tid)
		if tn == nil || !tn.Yielding {
			continue
		}
		prio := int32(0)
		if ts := m.resolve(tid); ts != nil {
			prio = ts.Priority.Load()
		}
		holds := m.g.HoldCountOf(tid)
		if prio > bestPrio || (prio == bestPrio && holds > bestHolds) {
			bestPrio = prio
			bestHolds = holds
			victim = tid
		}
	}
	if victim == 0 {
		return 0
	}
	if ts := m.resolve(victim); ts != nil {
		m.cache.ForceGo(ts)
		m.Counters.StarvationsBroken.Add(1)
	}
	return victim
}

func (m *Monitor) pruneSuppressed() {
	for k, last := range m.suppressed {
		if m.tick-last >= m.cfg.SuppressTicks {
			delete(m.suppressed, k)
		}
	}
}

// PendingEpisodes returns the number of unconcluded FP episodes.
func (m *Monitor) PendingEpisodes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.episodes)
}
