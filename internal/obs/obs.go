// Package obs is Dimmunix's observability bus: the typed event stream
// the runtime publishes for operators (deadlocks detected, signatures
// archived/disabled, avoidance yields, sync rounds, history changes).
//
// The bus is built so observers can never stall the protected
// application: publishers enqueue into a fixed-size ring under a
// micro-critical-section and return immediately; when the ring is full
// the oldest event is dropped (and counted) rather than blocking the
// publisher. A single dispatcher goroutine drains the ring and delivers
// to registered observer functions and subscriber channels — a stalled
// observer stalls only the dispatcher, never the §5.4 avoidance guard,
// the lock-free fast path, or the monitor pass. With no observer and no
// subscriber registered, Publish is a single atomic load and publish
// sites skip event construction entirely (Active gates them), so the
// zero-observer configuration has no measurable overhead.
package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one observability event. The concrete payload types below are
// the only implementations; switch on them to consume the stream. The
// public dimmunix package re-exports all of them.
type Event interface{ isEvent() }

// DeadlockDetected reports a deadlock cycle found by the monitor (§3).
// Recovery (if configured) has already been initiated when the event is
// published.
type DeadlockDetected struct {
	// SigID identifies the archived signature of the cycle.
	SigID string
	// New is true when this pattern was first seen now (and therefore
	// also produced a SignatureArchived event).
	New bool
	// ThreadIDs and LockIDs are the cycle's participants.
	ThreadIDs []int32
	LockIDs   []uint64
}

// SignatureArchived reports a new signature saved to the history (§5.4).
type SignatureArchived struct {
	SigID string
	// Kind is "deadlock" or "starvation".
	Kind string
	// Depth is the matching depth recorded in the signature.
	Depth int
	// Stacks is the number of call stacks (cycle width).
	Stacks int
}

// SignatureDisabled reports a signature's disabled flag flipping — the
// §5.7 pop-up-blocker flow (DisableLastAvoided, auto-disable after
// repeated max-yield aborts, the history tooling, or a flip adopted from
// a sync merge).
type SignatureDisabled struct {
	SigID string
	// Disabled is the new state (false = re-enabled).
	Disabled bool
}

// AvoidanceYield reports one YIELD decision: a thread was steered away
// from completing a known signature (§5.4).
type AvoidanceYield struct {
	SigID string
	// TID is the yielding thread, LID the lock it requested.
	TID int32
	LID uint64
	// Depth is the matching depth in force when the instance was found.
	Depth int
}

// RecoveryAborted reports that the built-in abort recovery unwound the
// lock waits of a deadlock's victims (WithAbortRecovery; the in-process
// analog of the paper's restart, §3).
type RecoveryAborted struct {
	SigID     string
	ThreadIDs []int32
}

// StarvationAverted reports a yield cycle handled by the monitor: under
// weak immunity the victim's yield was broken, under strong immunity the
// restart hook was invoked instead (§5.4).
type StarvationAverted struct {
	SigID string
	New   bool
	// ThreadIDs are the cycle's threads; VictimTID the thread whose
	// yield was broken (0 under strong immunity).
	ThreadIDs []int32
	VictimTID int32
}

// SyncRoundDone reports one completed history-store sync round
// (pull→merge→push, §8 distribution), whether it was driven by the sync
// loop, an archive-time kick, or an explicit SyncNow.
type SyncRoundDone struct {
	// Pulled is the number of local entries changed by the merged-in
	// remote snapshot (0 when the probe showed no change).
	Pulled int
	// Pushed is true when local changes were published to the store.
	Pushed bool
	// Err is the round's first error ("" on success).
	Err string
	// Duration is the round's wall-clock time.
	Duration time.Duration
	// ConsecFails is the sync loop's consecutive-failure streak at
	// publish time (reset to 0 by any successful round). A failed loop
	// round is scored just after its event publishes, so the stretched
	// streak shows from the next event on; the loop's backoff schedule
	// derives from it (see Counters.SyncBackoffs for the delays).
	ConsecFails int
}

// HistoryChanged reports any mutation of the live signature history —
// archives, disables, removals, sync merges, reloads. Epoch is the new
// danger-index epoch; a changed epoch is what re-validates the fast
// path's cached safe-stack markers.
type HistoryChanged struct {
	// Op names the mutation: "add", "disable", "enable", "remove",
	// "merge", "replace" or "load".
	Op string
	// SigID is the affected signature for single-entry ops ("" for bulk
	// ops like merge/replace).
	SigID string
	// Epoch is the history version/danger epoch after the mutation.
	Epoch uint64
	// Signatures is the live signature count after the mutation.
	Signatures int
}

func (DeadlockDetected) isEvent()  {}
func (SignatureArchived) isEvent() {}
func (SignatureDisabled) isEvent() {}
func (AvoidanceYield) isEvent()    {}
func (RecoveryAborted) isEvent()   {}
func (StarvationAverted) isEvent() {}
func (SyncRoundDone) isEvent()     {}
func (HistoryChanged) isEvent()    {}

// DefaultBufferSize is the ring (and per-subscriber channel) capacity
// New selects when given no size.
const DefaultBufferSize = 256

// Bus is the bounded non-blocking dispatcher. Create with New; it is
// inert (no goroutine) until an observer exists or Subscribe is called.
type Bus struct {
	size int

	// active is the publishers' gate: true iff at least one observer
	// function or subscriber channel is registered. Publish sites check
	// Active before even constructing an event.
	active  atomic.Bool
	dropped atomic.Uint64

	mu        sync.Mutex
	ring      []Event
	head, n   int
	observers []func(Event)
	subs      map[uint64]*subscriber
	nextSub   uint64
	// deadDrops retains the drop counts of departed subscribers (folded
	// in on unsubscribe/Stop), so attribution survives churn.
	deadDrops map[string]uint64
	started   bool
	stopped   bool

	wake   chan struct{}
	stopCh chan struct{}
	doneCh chan struct{}
}

// New builds a bus with the given ring size (<= 0 selects
// DefaultBufferSize) and statically registered observer functions.
func New(size int, observers []func(Event)) *Bus {
	if size <= 0 {
		size = DefaultBufferSize
	}
	b := &Bus{
		size:      size,
		observers: observers,
		subs:      make(map[uint64]*subscriber),
		wake:      make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
	if len(observers) > 0 {
		b.active.Store(true)
		b.mu.Lock()
		b.ensureStartedLocked()
		b.mu.Unlock()
	}
	return b
}

// Active reports whether anything listens. Safe on a nil bus. Publish
// sites use it to skip event construction entirely when no one does —
// the zero-observer overhead guarantee.
func (b *Bus) Active() bool { return b != nil && b.active.Load() }

// Dropped returns how many events were discarded: overwritten in the
// ring while the dispatcher was behind, or skipped for a subscriber
// whose channel was full.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// subscriber is one channel consumer: its delivery channel, the name
// drop attribution reports it under, and its own drop count.
type subscriber struct {
	ch      chan Event
	name    string
	dropped atomic.Uint64
}

// DroppedBySubscriber attributes subscriber-channel drops to the
// subscriber that could not keep up, keyed by subscription name
// (SubscribeNamed; anonymous Subscribe calls appear as "sub-<id>").
// Departed subscribers' counts are retained, so totals are monotonic.
// Returns nil when no subscriber ever dropped. Ring overwrites — the
// dispatcher itself falling behind — are in Dropped() only: they cannot
// be blamed on any one consumer.
func (b *Bus) DroppedBySubscriber() map[string]uint64 {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out map[string]uint64
	add := func(name string, n uint64) {
		if n == 0 {
			return
		}
		if out == nil {
			out = make(map[string]uint64)
		}
		out[name] += n
	}
	for name, n := range b.deadDrops {
		add(name, n)
	}
	for _, s := range b.subs {
		add(s.name, s.dropped.Load())
	}
	return out
}

// retireLocked folds a departing subscriber's drop count into deadDrops;
// b.mu held.
func (b *Bus) retireLocked(s *subscriber) {
	n := s.dropped.Load()
	if n == 0 {
		return
	}
	if b.deadDrops == nil {
		b.deadDrops = make(map[string]uint64)
	}
	b.deadDrops[s.name] += n
}

// Publish enqueues e for asynchronous delivery. It never blocks: when
// the ring is full the oldest undelivered event is dropped and counted.
// No-op when nothing listens or the bus is stopped.
func (b *Bus) Publish(e Event) {
	if !b.Active() {
		return
	}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	if b.ring == nil {
		b.ring = make([]Event, b.size)
	}
	if b.n == b.size {
		// Drop-oldest: overwrite the head slot.
		b.ring[b.head] = nil
		b.head = (b.head + 1) % b.size
		b.n--
		b.dropped.Add(1)
	}
	b.ring[(b.head+b.n)%b.size] = e
	b.n++
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// Subscribe returns a channel of events published after this call. The
// channel is buffered with the ring size; events arriving while it is
// full are dropped for this subscriber (and counted in Dropped), so a
// slow consumer can never apply backpressure to the runtime. The
// subscription ends — and the channel is closed — when ctx is done or
// the bus stops. A nil ctx subscribes for the life of the bus.
func (b *Bus) Subscribe(ctx context.Context) <-chan Event {
	return b.SubscribeNamed(ctx, "")
}

// SubscribeNamed is Subscribe with a name for drop attribution
// (DroppedBySubscriber). An empty name gets the generated "sub-<id>".
func (b *Bus) SubscribeNamed(ctx context.Context, name string) <-chan Event {
	ch := make(chan Event, b.size)
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		close(ch)
		return ch
	}
	b.nextSub++
	id := b.nextSub
	if name == "" {
		name = fmt.Sprintf("sub-%d", id)
	}
	b.subs[id] = &subscriber{ch: ch, name: name}
	b.active.Store(true)
	b.ensureStartedLocked()
	b.mu.Unlock()

	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				b.unsubscribe(id)
			case <-b.doneCh:
				// Stop closes every subscriber channel itself.
			}
		}()
	}
	return ch
}

func (b *Bus) unsubscribe(id uint64) {
	b.mu.Lock()
	s, ok := b.subs[id]
	if ok {
		delete(b.subs, id)
		b.retireLocked(s)
		// Close under b.mu: the dispatcher's channel sends also run
		// under b.mu, so a send can never race this close (a
		// send-on-closed panic on the dispatcher would take the host
		// process down).
		close(s.ch)
	}
	if len(b.subs) == 0 && len(b.observers) == 0 {
		b.active.Store(false)
	}
	b.mu.Unlock()
}

// ensureStartedLocked launches the dispatcher once; b.mu held.
func (b *Bus) ensureStartedLocked() {
	if b.started || b.stopped {
		return
	}
	b.started = true
	go b.dispatch()
}

// Stop terminates the bus: publishes are no-ops from here on, and the
// dispatcher — after a final best-effort drain — closes every subscriber
// channel. Stop never waits on observer code (a stalled observer must
// not be able to stall Runtime.Stop): it signals and returns; the
// dispatcher finishes cleanup whenever the observer in flight returns.
func (b *Bus) Stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	b.active.Store(false)
	started := b.started
	b.mu.Unlock()
	if started {
		close(b.stopCh)
	} else {
		b.finish()
	}
}

// finish closes the subscriber channels and marks the bus done; called
// by the dispatcher on exit (or by Stop when no dispatcher ever ran).
// Channels close under b.mu for the same send-vs-close reason as
// unsubscribe.
func (b *Bus) finish() {
	b.mu.Lock()
	for id, s := range b.subs {
		delete(b.subs, id)
		b.retireLocked(s)
		close(s.ch)
	}
	b.mu.Unlock()
	close(b.doneCh)
}

func (b *Bus) dispatch() {
	var batch []Event
	for {
		select {
		case <-b.stopCh:
			// Final best-effort drain so Stop-time events (a last sync
			// round, a shutdown-path archive) still reach observers.
			b.deliver(b.drain(batch[:0]))
			b.finish()
			return
		case <-b.wake:
			batch = b.deliver(b.drain(batch[:0]))
		}
	}
}

// drain moves the ring's contents into batch (reused between rounds).
func (b *Bus) drain(batch []Event) []Event {
	b.mu.Lock()
	for b.n > 0 {
		batch = append(batch, b.ring[b.head])
		b.ring[b.head] = nil
		b.head = (b.head + 1) % b.size
		b.n--
	}
	b.mu.Unlock()
	return batch
}

// deliver fans a batch out to observers (synchronously, on the
// dispatcher goroutine, outside b.mu — a stalled observer only stalls
// the dispatcher) and then to subscriber channels. The channel sends
// run under b.mu in one critical section per batch: every send is
// non-blocking (full channels drop), so the section is bounded, and
// serializing sends with unsubscribe/finish closes makes
// send-on-closed-channel impossible.
func (b *Bus) deliver(batch []Event) []Event {
	for _, e := range batch {
		for _, fn := range b.observers {
			fn(e)
		}
	}
	b.mu.Lock()
	for _, e := range batch {
		for _, s := range b.subs {
			select {
			case s.ch <- e:
			default:
				b.dropped.Add(1)
				s.dropped.Add(1)
			}
		}
	}
	b.mu.Unlock()
	return batch
}
