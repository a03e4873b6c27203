package core

import (
	"context"

	"dimmunix/internal/gid"
	"dimmunix/internal/obs"
)

// StatsSnapshot is a point-in-time view of every runtime counter,
// aggregated across the layers: the avoidance cache (lock-path
// counters, both tiers), the monitor (detection, false positives, store
// sync), recovery, thread pruning, the history epoch, and the
// observability bus itself. All sources are plain atomics, so taking a
// snapshot never touches the avoidance guard or the fast path; the
// fields are mutually consistent only at quiescence. JSON tags make the
// snapshot directly servable (DebugHandler, expvar, fleet artifacts).
type StatsSnapshot struct {
	// Lock-path counters (§5.4 avoidance protocol).
	Requests  uint64 `json:"requests"`
	Gos       uint64 `json:"gos"`
	Yields    uint64 `json:"yields"`
	Acquired  uint64 `json:"acquired"`
	Releases  uint64 `json:"releases"`
	Cancels   uint64 `json:"cancels"`
	ForcedGos uint64 `json:"forced_gos"`
	Aborts    uint64 `json:"aborts"`
	Ignored   uint64 `json:"ignored"`
	ProbeFPs  uint64 `json:"probe_fps"`
	Reentries uint64 `json:"reentries"`

	// SharedAcquired counts reader acquisitions (also in Acquired).
	SharedAcquired uint64 `json:"shared_acquired"`

	// Tier split: FastAcquired + GuardedAcquired == Acquired (every
	// non-reentrant acquisition lands in exactly one tier). FastGos
	// counts GO decisions served by the lock-free tier, including
	// try-failures and reentries that never became acquisitions.
	FastGos         uint64 `json:"fast_gos"`
	FastAcquired    uint64 `json:"fast_acquired"`
	GuardedAcquired uint64 `json:"guarded_acquired"`

	// EventBatches counts Batch carrier events published to the monitor
	// queue (up to event.BatchSize records each); EventsProcessed below
	// counts the unpacked operations, so the ratio is the realized batch
	// occupancy.
	EventBatches uint64 `json:"event_batches"`

	// YieldsBySignature maps signature ID to how many YIELD decisions
	// it caused — which archived patterns actually fire in production.
	YieldsBySignature map[string]uint64 `json:"yields_by_signature,omitempty"`

	// Monitor counters (§3, §5.2).
	MonitorPasses       uint64 `json:"monitor_passes"`
	EventsProcessed     uint64 `json:"events_processed"`
	DeadlocksDetected   uint64 `json:"deadlocks_detected"`
	StarvationsDetected uint64 `json:"starvations_detected"`
	StarvationsBroken   uint64 `json:"starvations_broken"`
	SignaturesSaved     uint64 `json:"signatures_saved"`
	EpisodesConcluded   uint64 `json:"episodes_concluded"`
	FalsePositives      uint64 `json:"false_positives"`
	TruePositives       uint64 `json:"true_positives"`

	// Recoveries counts deadlocks the built-in abort recovery unwound
	// (WithAbortRecovery); SignatureDisables counts disabled-flag flips
	// to disabled, from any source (§5.7 flows, auto-disable, merges).
	Recoveries        uint64 `json:"recoveries"`
	SignatureDisables uint64 `json:"signature_disables"`

	// History-store sync counters (§8 distribution).
	SyncRounds   uint64 `json:"sync_rounds"`
	SyncPulls    uint64 `json:"sync_pulls"`
	SyncPushes   uint64 `json:"sync_pushes"`
	SyncCovered  uint64 `json:"sync_covered"`
	SyncPorted   uint64 `json:"sync_ported"`
	SyncErrors   uint64 `json:"sync_errors"`
	SyncBackoffs uint64 `json:"sync_backoffs"`

	// Runtime housekeeping.
	ThreadPrunes uint64 `json:"thread_prunes"`
	LiveThreads  int    `json:"live_threads"`

	// Identity is how the process identifies goroutines (gid.Mode):
	// "verifying" or "armed" read the goroutine ID out of the runtime,
	// "parse" takes it from a stack-dump header. Process-wide, read-only.
	Identity string `json:"identity"`

	// HistoryEpoch is the danger-index epoch (bumped by every history
	// mutation, including remote merges — the fast path's invalidation
	// clock); HistorySignatures the live signature count.
	HistoryEpoch      uint64 `json:"history_epoch"`
	HistorySignatures int    `json:"history_signatures"`

	// EventsDropped counts observability events discarded by the
	// bounded dispatcher (ring overwrites and full subscriber
	// channels). Zero in a healthy deployment; growth means an observer
	// cannot keep up — never that the runtime slowed down.
	EventsDropped uint64 `json:"events_dropped"`
	// EventsDroppedBySubscriber attributes subscriber-channel drops to
	// the subscriber that could not keep up (construction-time observers
	// and departed subscribers included), so a lossy consumer can be
	// named instead of inferred.
	EventsDroppedBySubscriber map[string]uint64 `json:"events_dropped_by_subscriber,omitempty"`

	// TraceRecords / TraceDropped report trace mode (Config.TracePath):
	// acquisition events journaled for offline prediction, and events
	// lost to journal write errors or post-Close records. Both zero when
	// trace mode is off.
	TraceRecords uint64 `json:"trace_records,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`

	// Latency summarizes acquisition latency per tier plus avoidance
	// yield episodes (p50/p95/p99, log-scale buckets so percentiles have
	// at most 2x resolution error). Fast-tier observations are a 1-in-64
	// per-thread sample; guarded and yield record every occurrence.
	Latency LatencyStats `json:"latency"`
}

// LatencyStats groups the runtime's latency histograms: fast-tier and
// guarded-tier acquisition times, and the duration of yield episodes
// (first YIELD decision to the GO that released the thread).
type LatencyStats struct {
	Fast    obs.HistSnapshot `json:"fast"`
	Guarded obs.HistSnapshot `json:"guarded"`
	Yield   obs.HistSnapshot `json:"yield"`
}

// Stats returns a snapshot of every runtime counter. Cheap (atomic
// loads plus one map copy for the per-signature yields) and safe at any
// time from any goroutine.
func (rt *Runtime) Stats() StatsSnapshot {
	a := rt.stats.Snapshot()
	mc := &rt.mon.Counters
	danger := rt.hist.Danger()
	return StatsSnapshot{
		Requests:  a.Requests,
		Gos:       a.Gos,
		Yields:    a.Yields,
		Acquired:  a.Acquired,
		Releases:  a.Releases,
		Cancels:   a.Cancels,
		ForcedGos: a.ForcedGos,
		Aborts:    a.Aborts,
		Ignored:   a.Ignored,
		ProbeFPs:  a.ProbeFPs,
		Reentries: a.Reentries,

		SharedAcquired: a.SharedAcquired,

		FastGos:         a.FastGos,
		FastAcquired:    a.FastAcquired,
		GuardedAcquired: a.GuardedAcquired,

		EventBatches: a.EventBatches,

		YieldsBySignature: rt.stats.YieldsBySignature(),

		MonitorPasses:       mc.Passes.Load(),
		EventsProcessed:     mc.EventsProcessed.Load(),
		DeadlocksDetected:   mc.DeadlocksDetected.Load(),
		StarvationsDetected: mc.StarvationsDetected.Load(),
		StarvationsBroken:   mc.StarvationsBroken.Load(),
		SignaturesSaved:     mc.SignaturesSaved.Load(),
		EpisodesConcluded:   mc.EpisodesConcluded.Load(),
		FalsePositives:      mc.FalsePositives.Load(),
		TruePositives:       mc.TruePositives.Load(),

		Recoveries:        rt.recoveries.Load(),
		SignatureDisables: rt.disables.Load(),

		SyncRounds:   mc.SyncRounds.Load(),
		SyncPulls:    mc.SyncPulls.Load(),
		SyncPushes:   mc.SyncPushes.Load(),
		SyncCovered:  mc.SyncCovered.Load(),
		SyncPorted:   mc.SyncPorted.Load(),
		SyncErrors:   mc.SyncErrors.Load(),
		SyncBackoffs: mc.SyncBackoffs.Load(),

		ThreadPrunes: rt.threadPrunes.Load(),
		LiveThreads:  rt.NumThreads(),
		Identity:     gid.Mode(),

		HistoryEpoch:      danger.Epoch(),
		HistorySignatures: rt.hist.Len(),

		EventsDropped:             rt.bus.Dropped(),
		EventsDroppedBySubscriber: rt.bus.DroppedBySubscriber(),

		TraceRecords: rt.trace.Records(),
		TraceDropped: rt.trace.Dropped(),

		Latency: LatencyStats{
			Fast:    rt.latFast.Snapshot(),
			Guarded: rt.latGuarded.Snapshot(),
			Yield:   rt.latYield.Snapshot(),
		},
	}
}

// Subscribe returns a channel of observability events published after
// this call — the dynamic counterpart of the WithObserver option. The
// channel is buffered obs.DefaultBufferSize deep; events arriving
// while it is full are dropped for this subscriber (counted in
// Stats().EventsDropped), so a slow consumer can never stall a locker,
// the monitor, or shutdown. The subscription ends (channel closed) when
// ctx is done or the runtime stops. A nil ctx subscribes for the
// runtime's lifetime.
func (rt *Runtime) Subscribe(ctx context.Context) <-chan obs.Event {
	return rt.bus.Subscribe(ctx)
}

// SubscribeNamed is Subscribe with a name for drop attribution: events a
// too-slow subscriber misses are counted against that name in
// Stats().EventsDroppedBySubscriber (anonymous subscriptions appear as
// "sub-<id>").
func (rt *Runtime) SubscribeNamed(ctx context.Context, name string) <-chan obs.Event {
	return rt.bus.SubscribeNamed(ctx, name)
}

// SignatureSummary is one history entry's operator view, served by
// HistorySummary (and dimmunix.DebugHandler).
type SignatureSummary struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Depth    int    `json:"depth"`
	Stacks   int    `json:"stacks"`
	Rev      uint64 `json:"rev"`
	Disabled bool   `json:"disabled,omitempty"`
	// Yields is the per-signature yield count from this runtime's
	// lock-free counters; AvoidCount the history's persisted total
	// (survives restarts, merged across the fleet).
	Yields      uint64 `json:"yields"`
	AvoidCount  uint64 `json:"avoid_count"`
	AbortCount  uint64 `json:"abort_count"`
	FPCount     uint64 `json:"fp_count"`
	TPCount     uint64 `json:"tp_count"`
	CreatedUnix int64  `json:"created_unix,omitempty"`
	// Source is the entry's provenance: "" for live detections,
	// "predicted" for dimmunix-predict emissions, "static" for
	// dimmunix-vet compile-time emissions (signature.Source* constants).
	Source string `json:"source,omitempty"`
}

// HistorySummary is the operator view of the live signature history.
type HistorySummary struct {
	Epoch       uint64             `json:"epoch"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Signatures  []SignatureSummary `json:"signatures"`
	Tombstones  int                `json:"tombstones"`
}

// HistorySummary snapshots the live history for diagnostics. The
// mutable per-signature fields are owned by the avoidance guard, so the
// read runs inside the full decision scope — call it at human cadence,
// not per request.
func (rt *Runtime) HistorySummary() HistorySummary {
	sigYields := rt.stats.YieldsBySignature()
	out := HistorySummary{Epoch: rt.hist.Danger().Epoch(), Fingerprint: rt.hist.Fingerprint()}
	rt.cache.WithGuard(func() {
		for _, s := range rt.hist.Snapshot() {
			out.Signatures = append(out.Signatures, SignatureSummary{
				ID:          s.ID,
				Kind:        s.Kind.String(),
				Depth:       s.Depth,
				Stacks:      s.Size(),
				Rev:         s.Rev,
				Disabled:    s.Disabled,
				Yields:      sigYields[s.ID],
				AvoidCount:  s.AvoidCount,
				AbortCount:  s.AbortCount,
				FPCount:     s.FPCount,
				TPCount:     s.TPCount,
				CreatedUnix: s.CreatedUnix,
				Source:      s.Source,
			})
		}
		out.Tombstones = len(rt.hist.Tombstones())
	})
	return out
}
