// Package workload implements the synchronization-intensive
// microbenchmark of §7.2.2: Nt threads synchronize on Nl shared locks,
// holding each for δin and pausing δout between operations (both busy
// loops, simulating computation inside and outside critical sections).
// Threads descend random call chains before each lock operation, so lock
// acquisitions carry a uniformly distributed selection of call stacks —
// the raw material for both matching-depth experiments and synthetic
// history generation.
package workload

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix/internal/core"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// Config parametrizes one microbenchmark run.
type Config struct {
	// Threads is Nt, Locks is Nl.
	Threads int
	Locks   int
	// DIn / DOut are δin / δout (busy loops).
	DIn  time.Duration
	DOut time.Duration
	// Levels is the number of random call-chain levels descended before
	// each lock operation; the resulting stack depth is ~2·Levels+1.
	// Five levels give the paper's D=10 maximum stack depth.
	Levels int
	// Duration bounds the run (wall clock).
	Duration time.Duration
	// Seed makes the random call paths and lock choices reproducible.
	Seed int64
}

func (c *Config) fill() {
	if c.Threads <= 0 {
		c.Threads = 64
	}
	if c.Locks <= 0 {
		c.Locks = 8
	}
	if c.Levels <= 0 {
		c.Levels = 5
	}
	if c.Duration <= 0 {
		c.Duration = 500 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result reports one run's outcome.
type Result struct {
	Ops        uint64
	Elapsed    time.Duration
	Throughput float64 // lock operations per second
	Yields     uint64
	YieldsPerS float64
	ProbeFPs   uint64
}

// Runner executes microbenchmark runs on a runtime.
type Runner struct {
	rt    *core.Runtime
	cfg   Config
	locks []*core.Mutex
	stop  atomic.Bool
	ops   atomic.Uint64
}

// NewRunner prepares a runner: the lock set is created once so repeated
// runs (and warmups) share lock identities.
func NewRunner(rt *core.Runtime, cfg Config) *Runner {
	cfg.fill()
	r := &Runner{rt: rt, cfg: cfg}
	r.locks = make([]*core.Mutex, cfg.Locks)
	for i := range r.locks {
		r.locks[i] = rt.NewMutex()
	}
	return r
}

// Config returns the effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// spin busy-waits for d (the paper's delays are busy loops).
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// worker is the per-thread state.
type worker struct {
	r   *Runner
	t   *core.Thread
	rng *rand.Rand
}

// Run executes one timed run and returns its result. It may be called
// repeatedly; each call spawns cfg.Threads fresh goroutines.
func (r *Runner) Run() Result {
	r.stop.Store(false)
	r.ops.Store(0)
	statsBefore := r.rt.Stats()

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < r.cfg.Threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := r.rt.RegisterThread("wl")
			defer t.Close()
			w := &worker{r: r, t: t, rng: rand.New(rand.NewSource(r.cfg.Seed + int64(i)))}
			for !r.stop.Load() {
				w.iteration()
			}
		}(i)
	}
	time.Sleep(r.cfg.Duration)
	r.stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	statsAfter := r.rt.Stats()
	res := Result{
		Ops:      r.ops.Load(),
		Elapsed:  elapsed,
		Yields:   statsAfter.Yields - statsBefore.Yields,
		ProbeFPs: statsAfter.ProbeFPs - statsBefore.ProbeFPs,
	}
	res.Throughput = float64(res.Ops) / elapsed.Seconds()
	res.YieldsPerS = float64(res.Yields) / elapsed.Seconds()
	return res
}

// iteration descends a random call chain and performs one lock operation.
func (w *worker) iteration() {
	path := w.rng.Uint64()
	w.step(w.r.cfg.Levels, path)
}

// step dispatches to one of four distinct functions per level, building
// uniformly distributed call stacks (§7.2.2: "which function is called at
// each level is chosen randomly").
//
//go:noinline
func (w *worker) step(level int, path uint64) {
	if level <= 0 {
		// Four distinct bottom-level lock statements: depth-1 matching
		// (and position-based baselines like gate locks) see four
		// distinguishable sites rather than one.
		switch path & 3 {
		case 0:
			w.lockOp0()
		case 1:
			w.lockOp1()
		case 2:
			w.lockOp2()
		default:
			w.lockOp3()
		}
		return
	}
	switch path & 3 {
	case 0:
		w.c0(level-1, path>>2)
	case 1:
		w.c1(level-1, path>>2)
	case 2:
		w.c2(level-1, path>>2)
	default:
		w.c3(level-1, path>>2)
	}
}

//go:noinline
func (w *worker) c0(level int, path uint64) { w.step(level, path) }

//go:noinline
func (w *worker) c1(level int, path uint64) { w.step(level, path) }

//go:noinline
func (w *worker) c2(level int, path uint64) { w.step(level, path) }

//go:noinline
func (w *worker) c3(level int, path uint64) { w.step(level, path) }

// Each lockOpN contains its own textual LockT call so the captured
// innermost frame differs per site (an inlined shared helper would
// collapse all four into one logical frame).

//go:noinline
func (w *worker) lockOp0() {
	m := w.pick()
	if err := m.LockT(w.t); err != nil {
		return
	}
	w.finish(m)
}

//go:noinline
func (w *worker) lockOp1() {
	m := w.pick()
	if err := m.LockT(w.t); err != nil {
		return
	}
	w.finish(m)
}

//go:noinline
func (w *worker) lockOp2() {
	m := w.pick()
	if err := m.LockT(w.t); err != nil {
		return
	}
	w.finish(m)
}

//go:noinline
func (w *worker) lockOp3() {
	m := w.pick()
	if err := m.LockT(w.t); err != nil {
		return
	}
	w.finish(m)
}

func (w *worker) pick() *core.Mutex {
	return w.r.locks[w.rng.Intn(len(w.r.locks))]
}

func (w *worker) finish(m *core.Mutex) {
	spin(w.r.cfg.DIn)
	_ = m.UnlockT(w.t)
	w.r.ops.Add(1)
	spin(w.r.cfg.DOut)
}

// Warmup runs briefly so the runtime's interner observes the workload's
// stack population (needed before synthesizing a history) — every call
// path exactly: the runtime walks as many frames as its deepest signature
// matches on and otherwise records paths alike in their innermost
// MatchDepth frames as one, so a placeholder signature deeper than any
// stack (and matching none) sits in the history while the warm-up runs.
func (r *Runner) Warmup(d time.Duration) {
	deep := signature.New(signature.Deadlock, []stack.Stack{stack.Synthetic(0, 1)}, stack.MaxCaptureDepth)
	if h := r.rt.History(); h.Add(deep) {
		defer h.Remove(deep.ID)
	}
	saved := r.cfg.Duration
	r.cfg.Duration = d
	r.Run()
	r.cfg.Duration = saved
}
