package simapp

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dimmunix/internal/core"
	"dimmunix/internal/histstore"
	"dimmunix/internal/lint"
	"dimmunix/internal/signature"
)

// TestChannelStaticInoculation closes the loop on the channel-carried
// inversion: the static analyzer binds the ChannelLab's recv-side
// acquisitions through the send-site payload table — no execution, no
// trace — and a fresh fleet member avoids the resulting two-lock
// inversion on its very first encounter. Only the ChannelLab cycle is
// pushed, so the avoidance yield is attributable to precisely the
// signature the payload analysis produced.
func TestChannelStaticInoculation(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "chan-static.json")

	prog, err := lint.Load(lint.Options{}, "dimmunix/internal/simapp")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res := lint.Analyze(prog, lint.LockOrderOptions{}).LockOrder
	var chanCycles []lint.ConfirmedCycle
	for _, c := range res.Cycles {
		carried := true
		for _, l := range c.Locks {
			if !strings.Contains(l, "ChannelLab") {
				carried = false
				break
			}
		}
		if carried && len(c.Locks) > 0 {
			chanCycles = append(chanCycles, c)
		}
	}
	if len(chanCycles) == 0 {
		t.Fatalf("payload table did not surface the ChannelLab inversion; cycles: %+v", res.Cycles)
	}

	emitted := lint.EmitHistory(chanCycles, lint.EmitOptions{Calibrate: true})
	if emitted.Len() == 0 {
		t.Fatalf("nothing emitted from %d ChannelLab cycles", len(chanCycles))
	}
	fs := histstore.NewFileStore(storePath)
	if _, err := fs.Push(context.Background(), emitted); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	avoid := core.MustNew(core.Config{
		HistoryPath: storePath,
		MatchDepth:  2,
		Tau:         2 * time.Millisecond,
		MaxYield:    10 * time.Second,
	})
	defer avoid.Stop()
	var loadedStatic int
	for _, s := range avoid.History().Snapshot() {
		if s.Source == signature.SourceStatic {
			loadedStatic++
		}
	}
	if loadedStatic != emitted.Len() {
		t.Fatalf("runtime loaded %d static entries, store holds %d", loadedStatic, emitted.Len())
	}

	if errs := NewChannelLab(avoid).Exploit(50 * time.Millisecond); !Clean(errs) {
		t.Fatalf("inoculated exploit not clean: %v", errs)
	}
	stats := avoid.Stats()
	if stats.DeadlocksDetected != 0 {
		t.Fatalf("inoculated run detected %d deadlocks; static immunity must avoid, not recover", stats.DeadlocksDetected)
	}
	if stats.Yields == 0 {
		t.Fatal("inoculated run recorded no avoidance yields")
	}
	attributed := false
	for id, n := range stats.YieldsBySignature {
		if n == 0 {
			continue
		}
		sig := avoid.History().Get(id)
		if sig == nil {
			t.Fatalf("yield attributed to unknown signature %s", id)
		}
		if sig.Source == signature.SourceStatic {
			attributed = true
		}
	}
	if !attributed {
		t.Fatalf("no yield attributed to a static signature: %v", stats.YieldsBySignature)
	}
}
