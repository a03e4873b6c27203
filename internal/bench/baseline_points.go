package bench

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix/internal/bench/gatelock"
	"dimmunix/internal/bench/ghostlock"
)

// The comparator workloads mirror the Fig 9 microbenchmark point
// (64 threads, 8 locks, din=dout=1ms) on raw sync.Mutex, guarded by gate
// locks / ghost locks built from the same number of "discovered"
// deadlocks (64).

const (
	cmpThreads = 64
	cmpLocks   = 8
	cmpSites   = 4
	cmpHist    = 64
)

func cmpDur(s Scale) time.Duration {
	if s.Full {
		return 2 * time.Second
	}
	return 250 * time.Millisecond
}

func cmpSpin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

func runGateLockPoint(s Scale) (float64, gatelock.Stats) {
	mgr := gatelock.NewManager()
	sites := make([]gatelock.Site, cmpSites)
	for i := range sites {
		sites[i] = gatelock.Site{Func: "workload.lockOp", File: "workload.go", Line: 100 + i}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < cmpHist; i++ {
		a, b := sites[rng.Intn(cmpSites)], sites[rng.Intn(cmpSites)]
		mgr.AddDeadlock([]gatelock.Site{a, b})
	}

	locks := make([]sync.Mutex, cmpLocks)
	var ops atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < cmpThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(t)))
			for !stop.Load() {
				site := sites[r.Intn(cmpSites)]
				tok := mgr.Enter(site)
				m := &locks[r.Intn(cmpLocks)]
				m.Lock()
				cmpSpin(time.Millisecond)
				m.Unlock()
				mgr.Exit(tok)
				ops.Add(1)
				cmpSpin(time.Millisecond)
			}
		}(t)
	}
	time.Sleep(cmpDur(s))
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	return float64(ops.Load()) / elapsed.Seconds(), mgr.Stats()
}

func runGhostLockPoint(s Scale) (float64, ghostlock.Stats) {
	mgr := ghostlock.NewManager()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < cmpHist; i++ {
		a := uint64(rng.Intn(cmpLocks) + 1)
		b := uint64(rng.Intn(cmpLocks) + 1)
		if a == b {
			continue
		}
		mgr.AddDeadlock([]uint64{a, b})
	}

	locks := make([]sync.Mutex, cmpLocks)
	var ops atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < cmpThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(t)))
			tid := int64(t + 1)
			for !stop.Load() {
				id := uint64(r.Intn(cmpLocks) + 1)
				mgr.BeforeLock(tid, id)
				m := &locks[id-1]
				m.Lock()
				cmpSpin(time.Millisecond)
				m.Unlock()
				mgr.AfterUnlock(tid, id)
				ops.Add(1)
				cmpSpin(time.Millisecond)
			}
		}(t)
	}
	time.Sleep(cmpDur(s))
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	return float64(ops.Load()) / elapsed.Seconds(), mgr.Stats()
}
