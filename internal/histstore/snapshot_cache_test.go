package histstore

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestServerMarshalsAVersionOnce: pulls of an unchanged daemon are served
// from one marshal, a push that changes nothing keeps it, and a push
// that changes something rebuilds it.
func TestServerMarshalsAVersionOnce(t *testing.T) {
	srv, err := NewServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewHTTPStore(ts.URL)
	defer client.Close()
	get := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/history")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// cached returns the daemon's cached bytes; two calls returning the
	// same backing array were served by one marshal.
	cached := func() []byte {
		t.Helper()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		data, err := srv.snapshotLocked()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	s1 := sig(1)
	if _, err := client.Push(bg, histWith(s1)); err != nil {
		t.Fatal(err)
	}
	first := get()
	built := cached()
	if second := get(); !bytes.Equal(first, second) {
		t.Fatal("two pulls of one version returned different bytes")
	}
	if again := cached(); &again[0] != &built[0] {
		t.Fatal("an unchanged version was marshaled twice")
	}
	if !bytes.Equal(first, built) {
		t.Fatal("the pull did not serve the cached bytes")
	}

	// A push that merges nothing leaves the version and the bytes alone.
	if _, err := client.Push(bg, histWith(sig(1))); err != nil {
		t.Fatal(err)
	}
	if again := cached(); &again[0] != &built[0] {
		t.Fatal("a no-change push invalidated the cached snapshot")
	}

	// A push that changes the history invalidates them.
	s2 := sig(2)
	if _, err := client.Push(bg, histWith(s2)); err != nil {
		t.Fatal(err)
	}
	third := get()
	if bytes.Equal(first, third) {
		t.Fatal("a changing push left the stale snapshot in place")
	}
	h, _, err := client.Load(bg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Get(s1.ID) == nil || h.Get(s2.ID) == nil {
		t.Fatal("the rebuilt snapshot lacks a pushed signature")
	}
	want, err := srv.History().MarshalJSONCompact()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(third, want) {
		t.Fatal("the served snapshot is not the daemon's current history")
	}
}

// TestPushPrevReportsTheVersionBeforeTheJoin: prev is what a probe
// returned just before the push, whether or not the push changed
// anything — the evidence a sync round needs to adopt its own push.
func TestPushPrevReportsTheVersionBeforeTheJoin(t *testing.T) {
	srv, err := NewServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewHTTPStore(ts.URL)
	defer client.Close()

	for i, tc := range []struct {
		name    string
		seed    uint64
		changes bool
	}{{"new signature", 1, true}, {"same again", 1, false}, {"another", 2, true}} {
		before, err := client.Probe(bg)
		if err != nil {
			t.Fatal(err)
		}
		now, prev, err := client.PushPrev(bg, histWith(sig(tc.seed)))
		if err != nil {
			t.Fatal(err)
		}
		if prev != before {
			t.Fatalf("push %d (%s): prev %q, probed %q before it", i, tc.name, prev, before)
		}
		if (now != prev) != tc.changes {
			t.Fatalf("push %d (%s): version %q → %q, changes=%v", i, tc.name, prev, now, tc.changes)
		}
	}
}
