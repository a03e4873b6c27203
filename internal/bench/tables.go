package bench

import (
	"fmt"
	"time"

	"dimmunix/internal/core"
	"dimmunix/internal/monitor"
	"dimmunix/internal/simapp"
)

func recoveringRuntime(cfg core.Config, lab core.Lab) *core.Runtime {
	var rt *core.Runtime
	cfg.OnDeadlock = func(info monitor.DeadlockInfo) {
		rt.AbortThreads(info.ThreadIDs...)
	}
	if cfg.Tau == 0 {
		cfg.Tau = 5 * time.Millisecond
	}
	if cfg.MaxYield == 0 {
		cfg.MaxYield = 10 * time.Second
	}
	rt = core.MustNewLab(cfg, lab)
	return rt
}

const exploitHold = 50 * time.Millisecond

// Table1 reproduces §7.1.1: every bug is run in three configurations —
// (1) detection-only baseline, (2) full instrumentation with yield
// decisions ignored (proving the instrumentation's timing changes do not
// mask the bug), (3) full Dimmunix with the signatures in history — and
// the immunized runs' yields are reported min/avg/max.
func Table1(s Scale) Report {
	trials := 3
	if s.Full {
		trials = 100
	}
	rep := Report{
		ID:     "table1",
		Title:  "Real deadlock bugs avoided by Dimmunix",
		Header: []string{"System", "Bug#", "cfg1:dlk", "cfg2:dlk", "cfg3:ok", "Yields min", "avg", "max", "Patterns", "Depth"},
	}
	for _, bug := range simapp.Bugs() {
		// Config 1: detection-only (stands in for the unmodified
		// program; the monitor only provides the recovery our harness
		// needs to run repeated trials).
		cfg1Deadlocks := 0
		{
			rt := recoveringRuntime(core.Config{Mode: core.ModeDataStructs}, core.Lab{})
			app := bug.New(rt)
			for i := 0; i < trials; i++ {
				if simapp.Deadlocked(app.Exploit(exploitHold)) {
					cfg1Deadlocks++
				}
			}
			rt.Stop()
		}
		// Config 2: full Dimmunix, decisions ignored.
		cfg2Deadlocks := 0
		{
			rt := recoveringRuntime(core.Config{}, core.Lab{IgnoreDecisions: true})
			app := bug.New(rt)
			for i := 0; i < trials; i++ {
				if simapp.Deadlocked(app.Exploit(exploitHold)) {
					cfg2Deadlocks++
				}
			}
			rt.Stop()
		}
		// Config 3: full Dimmunix; contract each pattern once, then run
		// the immunized trials.
		rt := recoveringRuntime(core.Config{}, core.Lab{})
		app := bug.New(rt)
		for i := 0; i < bug.ReproduciblePatterns+6; i++ {
			errs := app.Exploit(exploitHold)
			if rt.History().Len() >= bug.ReproduciblePatterns && simapp.Clean(errs) {
				break
			}
		}
		completed := 0
		minY, maxY, sumY := int64(1<<62), int64(0), int64(0)
		for i := 0; i < trials; i++ {
			before := rt.Stats().Yields
			errs := app.Exploit(exploitHold)
			y := int64(rt.Stats().Yields - before)
			if simapp.Clean(errs) {
				completed++
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
			sumY += y
		}
		patterns := rt.History().Len()
		depth := measuredDepths(rt)
		rt.Stop()

		rep.Rows = append(rep.Rows, []string{
			bug.System, bug.BugID,
			fmt.Sprintf("%d/%d", cfg1Deadlocks, trials),
			fmt.Sprintf("%d/%d", cfg2Deadlocks, trials),
			fmt.Sprintf("%d/%d", completed, trials),
			fmt.Sprintf("%d", minY),
			fmt.Sprintf("%d", sumY/int64(trials)),
			fmt.Sprintf("%d", maxY),
			itoa(patterns),
			depth,
		})
	}
	rep.Notes = append(rep.Notes,
		"cfg1 = detection-only baseline, cfg2 = instrumented with decisions ignored, cfg3 = full Dimmunix (immunized)",
		"paper: every cfg1/cfg2 trial deadlocks, every cfg3 trial completes; loop-driven bugs (ActiveMQ) yield many times per trial",
	)
	return rep
}

// measuredDepths renders the captured signature stack depths.
func measuredDepths(rt *core.Runtime) string {
	out := ""
	for i, sig := range rt.History().Snapshot() {
		if i > 0 {
			out += ","
		}
		minLen := 1 << 30
		for _, st := range sig.Stacks {
			if len(st) < minLen {
				minLen = len(st)
			}
		}
		out += itoa(minLen)
	}
	return out
}

// Table2 reproduces §7.1.2: the five JDK invitations, each deadlocking
// once and then avoided.
func Table2(s Scale) Report {
	immunizedRuns := 3
	if s.Full {
		immunizedRuns = 100
	}
	rep := Report{
		ID:     "table2",
		Title:  "Java JDK 1.6-style deadlock invitations avoided",
		Header: []string{"Class", "First run", "Immunized runs OK", "Yields"},
	}
	for _, inv := range collectionsInvitations() {
		rt := recoveringRuntime(core.Config{MatchDepth: 2}, core.Lab{})
		first := "completed"
		errs := inv.run(rt, exploitHold)
		if anyRecovered(errs) {
			first = "deadlocked+recovered"
		}
		before := rt.Stats().Yields
		ok := 0
		for i := 0; i < immunizedRuns; i++ {
			errs := inv.run(rt, 10*time.Millisecond)
			if errs[0] == nil && errs[1] == nil {
				ok++
			}
		}
		yields := rt.Stats().Yields - before
		rt.Stop()
		rep.Rows = append(rep.Rows, []string{
			inv.name, first,
			fmt.Sprintf("%d/%d", ok, immunizedRuns),
			utoa(yields),
		})
	}
	rep.Notes = append(rep.Notes, "paper: all five invitations successfully avoided by Dimmunix")
	return rep
}
