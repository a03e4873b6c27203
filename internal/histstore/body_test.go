package histstore

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadBody: Content-Length sizes the buffer and nothing else — a
// missing, negative, over-limit or lying one still reads the whole body;
// one byte over the limit is errBodyTooLarge, never a truncated read.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 300) // 3000 bytes: several MinRead regrowths when unsized
	for _, contentLength := range []int64{int64(len(body)), -1, -7, 0, 5, 1 << 40} {
		for _, r := range []io.Reader{bytes.NewReader(body), iotest.OneByteReader(bytes.NewReader(body))} {
			got, err := readBody(r, contentLength, int64(len(body)))
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("Content-Length %d: read %d bytes, err %v", contentLength, len(got), err)
			}
			if contentLength > int64(len(body)) && cap(got) > 2*len(body)+bytes.MinRead {
				t.Fatalf("over-limit Content-Length %d sized the buffer: cap %d", contentLength, cap(got))
			}
		}
		_, err := readBody(bytes.NewReader(body), contentLength, int64(len(body))-1)
		if !errors.Is(err, errBodyTooLarge) || !strings.Contains(err.Error(), "2999-byte limit") {
			t.Fatalf("Content-Length %d, one byte over: err %v", contentLength, err)
		}
	}
	// A declared length is read into a buffer that never regrows.
	got, err := readBody(bytes.NewReader(body), int64(len(body)), maxSnapshotBytes)
	if err != nil || cap(got) != len(body)+bytes.MinRead {
		t.Fatalf("sized read: cap %d, err %v", cap(got), err)
	}
	if _, err := readBody(iotest.ErrReader(io.ErrUnexpectedEOF), -1, 10); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read error lost: %v", err)
	}
}

// chunked hides a reader's length from net/http, forcing chunked
// transfer (no Content-Length on the wire).
type chunked struct{ io.Reader }

// TestServerRefusesOversizedPush: a push over the daemon's limit is a
// 413 that changes nothing — sized or chunked — and a push under it
// still merges however it was framed.
func TestServerRefusesOversizedPush(t *testing.T) {
	srv, err := NewServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	snap, err := histWith(sig(1), sig(2)).MarshalJSONCompact()
	if err != nil {
		t.Fatal(err)
	}
	post := func(body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/history", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}

	srv.maxBody = int64(len(snap)) - 1
	for name, body := range map[string]io.Reader{"sized": bytes.NewReader(snap), "chunked": chunked{bytes.NewReader(snap)}} {
		code, msg := post(body)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "limit") {
			t.Errorf("%s push over the limit: %d %q, want 413 naming the limit", name, code, msg)
		}
	}
	if srv.History().Len() != 0 {
		t.Fatalf("a refused push merged %d entries", srv.History().Len())
	}

	srv.maxBody = int64(len(snap))
	if code, msg := post(chunked{bytes.NewReader(snap)}); code != http.StatusOK {
		t.Fatalf("chunked push at the limit: %d %q", code, msg)
	}
	if srv.History().Len() != 2 {
		t.Fatalf("chunked push merged %d entries, want 2", srv.History().Len())
	}

	// A Content-Length that lies (forged past net/http's framing): too
	// small still reads the whole body, absurdly large allocates nothing.
	more, err := histWith(sig(3)).MarshalJSONCompact()
	if err != nil {
		t.Fatal(err)
	}
	srv.maxBody = maxSnapshotBytes
	for _, lie := range []int64{3, 1 << 50} {
		req := httptest.NewRequest(http.MethodPost, "/v1/history", bytes.NewReader(more))
		req.ContentLength = lie
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("Content-Length %d: %d %s", lie, rec.Code, rec.Body)
		}
	}
	if srv.History().Len() != 3 {
		t.Fatalf("after the lying pushes: %d entries, want 3", srv.History().Len())
	}
}

// TestHTTPStoreLoadRefusesOversizedSnapshot: a pull over the client's
// limit is a histstore error naming the limit, not a JSON syntax error
// from a truncated body; chunked and sized replies under it both load.
func TestHTTPStoreLoadRefusesOversizedSnapshot(t *testing.T) {
	snap, err := histWith(sig(1), sig(2), sig(3)).MarshalJSONCompact()
	if err != nil {
		t.Fatal(err)
	}
	for _, framing := range []string{"sized", "chunked"} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(versionHeader, "7-1")
			if framing == "chunked" {
				w.Write(snap[:10])
				w.(http.Flusher).Flush() // headers are out: no Content-Length
				w.Write(snap[10:])
				return
			}
			w.Write(snap)
		}))
		store := NewHTTPStore(ts.URL)

		h, v, err := store.Load(bg)
		if err != nil || h.Len() != 3 || v != "7-1" {
			t.Fatalf("%s pull: %v entries, version %q, err %v", framing, h, v, err)
		}
		store.maxBody = int64(len(snap)) - 1
		_, _, err = store.Load(bg)
		if !errors.Is(err, errBodyTooLarge) || !strings.HasPrefix(err.Error(), "histstore:") || !strings.Contains(err.Error(), "-byte limit") {
			t.Fatalf("%s pull over the limit: %v", framing, err)
		}
		store.Close()
		ts.Close()
	}
}
