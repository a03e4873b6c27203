// Package peterson implements the generalized n-thread Peterson mutual
// exclusion algorithm (the "filter lock") that §5.6 of the paper uses to
// guard the shared Allowed sets without OS locks, plus a test-and-set spin
// lock and a Guard abstraction so the avoidance code can swap guards
// (WithGuard in the README's "Options"; internal/bench.Ablation compares
// them).
package peterson

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Guard is a mutual-exclusion primitive addressed by a dense slot index.
// Slot identifies the participating thread; implementations that do not
// need it (spin, mutex) ignore it.
type Guard interface {
	Lock(slot int)
	Unlock(slot int)
}

// Filter is the generalized Peterson filter lock for a fixed number of
// participants. Participant i must pass slot i in [0, N). It provides
// mutual exclusion and starvation-freedom at O(N) spin levels.
type Filter struct {
	n      int
	level  []atomic.Int32 // level[i]: highest level participant i reached
	victim []atomic.Int32 // victim[l]: last participant to enter level l
}

// NewFilter returns a filter lock for n participants (n >= 1).
func NewFilter(n int) *Filter {
	if n < 1 {
		n = 1
	}
	f := &Filter{
		n:      n,
		level:  make([]atomic.Int32, n),
		victim: make([]atomic.Int32, n),
	}
	for i := range f.level {
		f.level[i].Store(-1)
	}
	return f
}

// N returns the number of participants.
func (f *Filter) N() int { return f.n }

// Lock acquires the lock on behalf of participant slot.
func (f *Filter) Lock(slot int) {
	for l := 0; l < f.n-1; l++ {
		f.level[slot].Store(int32(l))
		f.victim[l].Store(int32(slot))
		// Wait while a conflicting participant exists at level >= l and
		// we are still the victim at this level.
		spins := 0
		for f.victim[l].Load() == int32(slot) && f.existsHigher(slot, int32(l)) {
			spins++
			if spins%64 == 0 {
				runtime.Gosched()
			}
		}
	}
	f.level[slot].Store(int32(f.n - 1))
}

func (f *Filter) existsHigher(slot int, l int32) bool {
	for k := 0; k < f.n; k++ {
		if k != slot && f.level[k].Load() >= l {
			return true
		}
	}
	return false
}

// Unlock releases the lock held by participant slot.
func (f *Filter) Unlock(slot int) {
	f.level[slot].Store(-1)
}

// Spin is a test-and-test-and-set spin lock with exponential-ish backoff.
type Spin struct {
	state atomic.Int32
}

// NewSpin returns an unlocked spin lock.
func NewSpin() *Spin { return &Spin{} }

// Lock acquires the spin lock; slot is ignored.
func (s *Spin) Lock(int) {
	backoff := 1
	for {
		if s.state.Load() == 0 && s.state.CompareAndSwap(0, 1) {
			return
		}
		for i := 0; i < backoff; i++ {
			runtime.Gosched()
		}
		if backoff < 64 {
			backoff <<= 1
		}
	}
}

// Unlock releases the spin lock; slot is ignored.
func (s *Spin) Unlock(int) {
	s.state.Store(0)
}

// Mutex adapts sync.Mutex to the Guard interface.
type Mutex struct {
	mu sync.Mutex
}

// NewMutex returns an unlocked mutex guard.
func NewMutex() *Mutex { return &Mutex{} }

// Lock acquires the mutex; slot is ignored.
func (m *Mutex) Lock(int) { m.mu.Lock() }

// Unlock releases the mutex; slot is ignored.
func (m *Mutex) Unlock(int) { m.mu.Unlock() }

var (
	_ Guard = (*Filter)(nil)
	_ Guard = (*Spin)(nil)
	_ Guard = (*Mutex)(nil)
)
