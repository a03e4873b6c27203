// Command dimmunix-predict turns acquisition traces into immunity before
// any deadlock fires: it loads a journal recorded by a runtime in trace
// mode (Config.TracePath / DIMMUNIX_TRACE), replays it through the
// offline predictor (internal/predict), and reports the lock-order
// cycles that could deadlock under another schedule. Predictions pass
// the soundness guards of dynamic deadlock prediction (thread
// disjointness, no common guard lock, handoff-aware lock sets), so a
// predicted signature is one no recorded evidence rules out.
//
// Usage:
//
//	dimmunix-predict analyze <trace>             # report predictions
//	dimmunix-predict analyze <trace> -o out.json # also write a history
//	dimmunix-predict push <trace> -sync-url <store>
//
// `push` is the fleet canary loop: one canary process records a trace,
// push sends the predicted signatures to the shared immunity store (a
// history file, journal directory, or dimmunix-hist serve daemon), and
// every synced runtime starts avoiding the pattern on its next sync —
// its danger index epoch-bumps exactly as for a live archive.
//
// -depth stamps the emitted signatures' matching depth (match it to the
// consuming runtimes' MatchDepth); -token authenticates pushes to
// token-guarded daemons (or DIMMUNIX_SYNC_TOKEN). The emitted entries
// carry source=predicted so dimmunix-hist list/show/diff can tell them
// from experienced ones.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"dimmunix/internal/histstore"
	"dimmunix/internal/predict"
	"dimmunix/internal/trace"
)

func main() {
	var (
		depth   = flag.Int("depth", 0, "matching depth for emitted signatures (0: default)")
		maxLen  = flag.Int("max-cycle", 0, "cycle search bound (0: default)")
		out     = flag.String("o", "", "write predicted history to this file (analyze)")
		syncURL = flag.String("sync-url", "", "immunity store to push predictions to (push)")
		token   = flag.String("token", os.Getenv("DIMMUNIX_SYNC_TOKEN"),
			"shared-secret push token for token-guarded daemons")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: dimmunix-predict [flags] analyze|push <trace>")
		os.Exit(2)
	}
	cmd, path := args[0], args[1]

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tr, err := trace.ReadAll(path)
	if err != nil {
		fatal(err)
	}
	if tr.Truncated {
		fmt.Fprintf(os.Stderr, "dimmunix-predict: warning: %s ends in a torn record (crash mid-write?); analyzing the intact prefix\n", path)
	}
	res := predict.Analyze(tr, predict.Options{Depth: *depth, MaxCycleLen: *maxLen})
	report(path, tr, res)

	switch cmd {
	case "analyze":
		if *out != "" {
			h := res.History(tr.Fingerprint)
			if err := h.SaveTo(*out); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %d predicted signature(s) -> %s\n", len(res.Signatures), *out)
		}
	case "push":
		if *syncURL == "" {
			fatal(fmt.Errorf("push requires -sync-url"))
		}
		if len(res.Signatures) == 0 {
			fmt.Println("nothing to push")
			return
		}
		st, err := histstore.Open(*syncURL)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		if hs, ok := st.(*histstore.HTTPStore); ok && *token != "" {
			hs.SetToken(*token)
		}
		if _, err := st.Push(ctx, res.History(tr.Fingerprint)); err != nil {
			fatal(err)
		}
		fmt.Printf("pushed %d predicted signature(s) -> %s\n", len(res.Signatures), *syncURL)
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

func report(path string, tr *trace.Trace, res *predict.Result) {
	fp := tr.Fingerprint
	if fp == "" {
		fp = "<none>"
	}
	fmt.Printf("trace %s: %d records, fingerprint %s\n", path, len(tr.Records), fp)
	fmt.Printf("dependencies=%d handoffs=%d cycles=%d rejected: same-thread=%d common-lock=%d no-stack=%d\n",
		res.Dependencies, res.Handoffs, res.Cycles,
		res.Rejected.SameThread, res.Rejected.CommonLock, res.Rejected.NoStack)
	fmt.Printf("predicted %d signature(s)\n", len(res.Signatures))
	for _, sig := range res.Signatures {
		fmt.Printf("  %s  %-10s depth=%d stacks=%d [predicted]\n",
			sig.ID, sig.Kind, sig.Depth, sig.Size())
		for i, s := range sig.Stacks {
			fmt.Printf("    stack %d: %s\n", i, s)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dimmunix-predict:", err)
	os.Exit(1)
}
