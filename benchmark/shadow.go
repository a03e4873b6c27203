package main

import (
	"runtime"
	"sync"
	"time"
)

// The shadow is how this benchmark repeats on a shared host.
//
// On the 2-vCPU guests it was sized on, call-heavy Go code runs in regimes:
// for seconds or minutes at a time a neighbour slows it by 1.5-1.8x, while
// a dependent ALU chain and a pointer chase do not notice. Whole runs fall
// into one regime, so no estimator over a run's own slices repeats: across
// runs the slice quartiles of the numbers as measured spread 7-27%.
//
// So every measured slice is bracketed by two short slices of the shadow:
// the same service and traffic on sync's locks plus a frozen amount of
// call-heavy runtime work per acquisition (runtime.Callers walks, lock-free,
// so the shadow has no contention dynamics of its own). It belongs to the
// benchmark and does not change between the commits of a comparison. A
// slice's numbers are divided by the mean of its two shadow readings, which
// cancels the regime; the median of those ratios over the run, times the
// shadow's nominal quiet value, is the metric. The same runs then spread
// 1-6%. What is reported is an estimate of the number a quiet machine would
// show; the shadow's reading is printed next to it.
//
// The correction holds while the program slows with the host as the shadow
// does. A change to the lock path that ends that needs the shadow re-cut, by
// a change of its own (README.md, "How a run is measured, and why").

//go:noinline
func shadowWork() {
	var pcs [32]uintptr
	runtime.Callers(0, pcs[:])
	runtime.Callers(0, pcs[:])
	runtime.Callers(0, pcs[:])
	runtime.Callers(0, pcs[:8])
}

type shadowMutex struct{ mu sync.Mutex }

func (m *shadowMutex) Lock()   { shadowWork(); m.mu.Lock() }
func (m *shadowMutex) Unlock() { m.mu.Unlock() }

type shadowRWMutex struct{ mu sync.RWMutex }

func (m *shadowRWMutex) Lock()    { shadowWork(); m.mu.Lock() }
func (m *shadowRWMutex) Unlock()  { m.mu.Unlock() }
func (m *shadowRWMutex) RLock()   { shadowWork(); m.mu.RLock() }
func (m *shadowRWMutex) RUnlock() { shadowWork(); m.mu.RUnlock() }

// shadowNominalUs is the shadow's median request on a quiet reference guest
// (2-vCPU Xeon 2.1 GHz Firecracker guest, go1.24). It only fixes the scale
// of the reported numbers: on another machine every metric is off by the
// same constant factor, which no comparison on that machine sees.
const shadowNominalUs = 26.5

const shadowSlice = 100 * time.Millisecond

// gauge reads the machine's current speed for call-heavy code by running a
// short slice of shadow traffic on n client goroutines of its own.
type gauge struct{ pool *clientPool }

func newGauge(n int, seed int64) *gauge {
	w := workload{name: "shadow", mode: modeInline}
	svc := newService(numCells, numRows,
		func() mutex { return new(shadowMutex) },
		func() rwmutex { return new(shadowRWMutex) })
	return &gauge{pool: newClientPool(&w, svc, n, seed, 9)}
}

func (g *gauge) read(d time.Duration) sliceResult { return g.pool.runSlice(d, 0, false) }

func (g *gauge) stop() { g.pool.stop() }
