package bench

import (
	"fmt"
	"runtime"
	"time"

	"dimmunix/internal/core"
	"dimmunix/internal/workload"
)

// Resources reproduces §7.4: memory overhead across thread counts with a
// 64-signature history, history bytes per signature, and the CPU-side
// note that avoidance work can even reduce contention.
func Resources(s Scale) Report {
	rep := Report{
		ID:     "resources",
		Title:  "Resource utilization (64 two-thread signatures, 8 locks)",
		Header: []string{"Threads", "Heap delta", "Interned stacks", "History bytes/sig"},
	}
	threads := []int{2, 64, 256}
	if s.Full {
		threads = []int{2, 64, 256, 1024}
	}
	for _, n := range threads {
		heapBefore := heapAlloc()
		rt := core.MustNew(core.Config{Tau: 50 * time.Millisecond})
		r := workload.NewRunner(rt, workload.Config{
			Threads:  n,
			Locks:    8,
			DIn:      time.Microsecond,
			DOut:     time.Millisecond,
			Duration: 200 * time.Millisecond,
		})
		r.Warmup(150 * time.Millisecond)
		hist, err := workload.SynthesizeHistory(rt.CapturedStacks(), 64, 2, 4, 3)
		if err == nil {
			rt.History().Merge(hist)
		}
		r.Run()
		heapAfter := heapAlloc()
		stacks := len(rt.CapturedStacks())
		rt.Stop()
		// Estimate after Stop: marshaling reads the per-signature counters
		// the (now quiescent) avoidance and monitor goroutines mutate.
		perSig := 0
		if l := rt.History().Len(); l > 0 {
			perSig = rt.History().SizeOnDiskEstimate() / l
		}

		delta := int64(heapAfter) - int64(heapBefore)
		if delta < 0 {
			delta = 0
		}
		rep.Rows = append(rep.Rows, []string{
			itoa(n),
			fmt.Sprintf("%.1f MB", float64(delta)/(1<<20)),
			itoa(stacks),
			itoa(perSig),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: 6-25 MB (pthreads) / 79-127 MB (Java) across 2-1024 threads; history 200-1000 bytes/signature; CPU overhead ~0",
	)
	return rep
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
