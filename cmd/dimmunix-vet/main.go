// Command dimmunix-vet is the static-analysis multichecker for code
// using dimmunix (and plain sync) locks. It drives the internal/lint
// analyzers over the packages matched by the given patterns:
//
//	lockorder        whole-program lock-order inversions (potential deadlocks)
//	chancycle        mixed channel/lock wait cycles (lock held across a blocking op)
//	dimmunixcopylock by-value copies of lock types
//	unlockcheck      leaked/double unlocks, ignored lock-call results
//	condloop         Cond.Wait outside a condition loop
//
// Findings print in the go-vet file:line form and exit status 1, so a
// CI step is just `dimmunix-vet ./...`. Deliberate sites (deadlock
// reproductions, teaching examples) are annotated in source with
// `//lint:ignore <analyzer> reason`.
//
// The -emit mode closes the loop with the fleet: every confirmed
// lock-order cycle is lowered into a calibration-armed format-v2
// signature (Source="static", runtime-style file:line pseudo-frames)
// and pushed into the history store file at the given path — ready for
// `dimmunix-hist -f <path> push http://daemon` to inoculate every
// process against a deadlock no process has ever executed.
//
// Usage:
//
//	dimmunix-vet ./...                         # report findings, exit 1 if any
//	dimmunix-vet -tests ./...                  # include in-package _test.go files
//	dimmunix-vet -only lockorder ./internal/...
//	dimmunix-vet -emit /tmp/static.json ./...  # lower cycles into a pushable store
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dimmunix/internal/histstore"
	"dimmunix/internal/lint"
)

var (
	dir     = flag.String("dir", "", "working directory for package loading (default: current)")
	tests   = flag.Bool("tests", false, "analyze in-package _test.go files too")
	only    = flag.String("only", "", "comma-separated analyzer subset (default: all)")
	emit    = flag.String("emit", "", "lower confirmed lockorder cycles into a history store file at this path")
	depth   = flag.Int("depth", 0, "emitted signature matching depth (default: stack length, capped at 4)")
	calib   = flag.Bool("calib", true, "arm depth calibration on emitted signatures")
	callDep = flag.Int("call-depth", 0, "lockorder call-graph closure depth (default 3)")
	ctxFlag = flag.Int("ctx", 1, "levels of allocation-site context on field lock identities (0 disables)")
	quiet   = flag.Bool("q", false, "suppress the summary line")
)

var all = []*lint.Analyzer{lint.LockOrder, lint.ChanCycle, lint.CopyLock, lint.UnlockCheck, lint.CondLoop}

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := all
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fatal(fmt.Errorf("unknown analyzer %q", name))
			}
			analyzers = append(analyzers, a)
		}
	}

	lint.DefaultLockOrderOptions = lint.LockOrderOptions{MaxCallDepth: *callDep, NoCtx: *ctxFlag == 0}

	prog, err := lint.Load(lint.Options{Dir: *dir, Tests: *tests}, patterns...)
	if err != nil {
		fatal(err)
	}
	for _, pkg := range prog.Packages {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "dimmunix-vet: warning: %v\n", terr)
		}
	}

	if *emit != "" {
		emitCycles(prog)
		return
	}

	diags, errs := lint.RunAnalyzers(prog, analyzers)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "dimmunix-vet:", e)
	}
	for _, d := range diags {
		fmt.Println(lint.Format(prog.Fset, d))
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dimmunix-vet: %d package(s), %d finding(s)\n",
			len(prog.Packages), len(diags))
	}
	if len(diags) > 0 || len(errs) > 0 {
		os.Exit(1)
	}
}

// emitCycles runs lockorder and chancycle alone (ignore directives do
// not apply: a deliberate reproduction is exactly what the fleet wants
// immunity to) and pushes the lowered signatures into the store file.
func emitCycles(prog *lint.Program) {
	all := lint.Analyze(prog, lint.DefaultLockOrderOptions)
	res, chres := all.LockOrder, all.ChanCycle
	cycles := append(append([]lint.ConfirmedCycle{}, res.Cycles...), chres.Cycles...)
	h := lint.EmitHistory(cycles, lint.EmitOptions{Depth: *depth, Calibrate: *calib})
	if h.Len() == 0 {
		fatal(fmt.Errorf("no lock-order or channel/lock cycles confirmed; nothing to emit (candidates: %d, guarded: %d, sequential: %d, rw: %d)",
			res.Candidates, res.SuppressedGuard, res.SuppressedSeq, res.SuppressedRW))
	}
	st := histstore.NewFileStore(*emit)
	if _, err := st.Push(context.Background(), h); err != nil {
		fatal(err)
	}
	fmt.Printf("emitted %d static signature(s) from %d confirmed cycle(s) (%d lockorder, %d chancycle) -> %s\n",
		h.Len(), len(cycles), len(res.Cycles), len(chres.Cycles), *emit)
	for _, c := range cycles {
		fmt.Printf("  cycle: %s -> %s\n", strings.Join(c.Locks, " -> "), c.Locks[0])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dimmunix-vet:", err)
	os.Exit(2)
}
