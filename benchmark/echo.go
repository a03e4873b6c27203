package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"dimmunix/internal/signature"
)

// The echo is fleet_sync's shadow. A fleet round is JSON encoding and
// decoding of a history plus loopback HTTP, which reacts to the host's
// regimes differently from the lock path, so it is read against work of its
// own kind: marshal a history-shaped document with encoding/json, POST it to
// a loopback server that unmarshals it and answers. Like the service shadow
// it belongs to the benchmark and is the same on both commits of a
// comparison.

type echoDoc struct {
	Version    int       `json:"version"`
	Signatures []echoSig `json:"signatures"`
}

type echoSig struct {
	ID     string   `json:"id"`
	Kind   string   `json:"kind"`
	Depth  int      `json:"depth"`
	Rev    uint64   `json:"rev"`
	Stacks []string `json:"stacks"`
}

// echoNominalUs is the echo's median round trip on a quiet reference guest;
// like shadowNominalUs it only fixes the scale.
const echoNominalUs = 880

// echoOps is how many round trips one reading takes.
const echoOps = 8

// serveLoopback serves h on a loopback port of the kernel's choosing. stop
// closes the server and waits for its goroutine.
func serveLoopback(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
		close(served)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close()
		<-served
	}, nil
}

type echoGauge struct {
	doc     echoDoc
	url     string
	client  *http.Client
	stopSrv func()
}

func newEchoGauge(hist *signature.History) (*echoGauge, error) {
	g := &echoGauge{client: &http.Client{}}
	for _, sig := range hist.Snapshot() {
		es := echoSig{ID: sig.ID, Kind: sig.Kind.String(), Depth: sig.Depth, Rev: sig.Rev}
		for _, st := range sig.Stacks {
			es.Stacks = append(es.Stacks, st.String())
		}
		g.doc.Signatures = append(g.doc.Signatures, es)
	}
	base, stop, err := serveLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var doc echoDoc
		body, err := io.ReadAll(r.Body)
		if err == nil {
			err = json.Unmarshal(body, &doc)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]int{"signatures": len(doc.Signatures)})
	}))
	if err != nil {
		return nil, err
	}
	g.url, g.stopSrv = base+"/echo", stop
	return g, nil
}

func (g *echoGauge) op() error {
	data, err := json.Marshal(&g.doc)
	if err != nil {
		return err
	}
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if out["signatures"] != len(g.doc.Signatures) {
		return fmt.Errorf("echo: server saw %d signatures, sent %d", out["signatures"], len(g.doc.Signatures))
	}
	return nil
}

// read returns the median of echoOps round trips, in ns.
func (g *echoGauge) read() (float64, error) {
	ns := make([]int64, 0, echoOps)
	for i := 0; i < echoOps; i++ {
		t0 := time.Now()
		if err := g.op(); err != nil {
			return 0, err
		}
		ns = append(ns, int64(time.Since(t0)))
	}
	return durationPercentile(ns, 0.5), nil
}

func (g *echoGauge) stop() {
	g.client.CloseIdleConnections()
	g.stopSrv()
}
