package bench

import (
	"time"

	"dimmunix/internal/core"
)

// Ablation benchmarks this implementation's own design choices: implicit
// goroutine-ID thread resolution vs explicit Thread handles, and dynamic
// calibration on/off.
func Ablation(s Scale) Report {
	rep := Report{
		ID:     "ablation",
		Title:  "Design ablations",
		Header: []string{"Variant", "ops/s", "Overhead vs best"},
	}

	// Implicit (goroutine-id parse) vs explicit thread identity.
	imp, exp := threadIDCost()
	rep.Rows = append(rep.Rows, []string{"thread-ID: explicit handle", f1(exp), pct(overhead(max2(imp, exp), exp))})
	rep.Rows = append(rep.Rows, []string{"thread-ID: implicit (gid parse)", f1(imp), pct(overhead(max2(imp, exp), imp))})

	// Calibration on vs off at depth-diverse history.
	calOff := runPoint(s, pointOpts{din: time.Microsecond, dout: time.Millisecond, hist: 64})
	calOn := runPoint(s, pointOpts{din: time.Microsecond, dout: time.Millisecond, hist: 64, calibrate: true})
	b := max2(calOff.Throughput, calOn.Throughput)
	rep.Rows = append(rep.Rows, []string{"calibration off", f1(calOff.Throughput), pct(overhead(b, calOff.Throughput))})
	rep.Rows = append(rep.Rows, []string{"calibration on", f1(calOn.Throughput), pct(overhead(b, calOn.Throughput))})

	rep.Notes = append(rep.Notes,
		"thread-ID: ops/s of a single uncontended lock/unlock loop through each identity path",
	)
	return rep
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// threadIDCost measures raw lock/unlock throughput through the implicit
// and explicit identity APIs (single thread, uncontended).
func threadIDCost() (implicitOps, explicitOps float64) {
	rt := core.MustNew(core.Config{Tau: 100 * time.Millisecond})
	defer rt.Stop()
	m := rt.NewMutex()

	const iters = 20000
	start := time.Now()
	for i := 0; i < iters; i++ {
		_ = m.Lock()
		_ = m.Unlock()
	}
	implicitOps = iters / time.Since(start).Seconds()

	th := rt.RegisterThread("bench")
	defer th.Close()
	start = time.Now()
	for i := 0; i < iters; i++ {
		_ = m.LockT(th)
		_ = m.UnlockT(th)
	}
	explicitOps = iters / time.Since(start).Seconds()
	return implicitOps, explicitOps
}
