package histstore

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix/internal/signature"
)

// versionHeader carries the store version on history responses.
const versionHeader = "X-Dimmunix-History-Version"

// tokenHeader carries the shared-secret push token (`dimmunix-hist serve
// --token` / DIMMUNIX_SYNC_TOKEN) on client requests.
const tokenHeader = "X-Dimmunix-Sync-Token"

// maxSnapshotBytes bounds one pushed snapshot (a format-v2 history is a
// few hundred bytes per signature; 64 MiB is far beyond any real
// history, §5.3 bounds its growth).
const maxSnapshotBytes = 64 << 20

// errBodyTooLarge is readBody's refusal of a body over its limit.
var errBodyTooLarge = errors.New("histstore: snapshot body too large")

// readBody reads r to EOF into a buffer sized from contentLength, so a
// body of the declared length is read without regrowth. More than limit
// bytes is an errBodyTooLarge error naming the limit — refused, never
// truncated into a JSON syntax error. contentLength only sizes the
// buffer: one that is absent (-1), negative or above the limit is
// ignored, and one that lies costs at most a regrowth.
func readBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	if contentLength < 0 || contentLength > limit {
		contentLength = 0
	}
	// ReadFrom wants MinRead spare bytes before the read that returns EOF.
	buf := bytes.NewBuffer(make([]byte, 0, contentLength+bytes.MinRead))
	n, err := buf.ReadFrom(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, fmt.Errorf("histstore: read body: %w", err)
	}
	if n > limit {
		return nil, fmt.Errorf("%w: more than the %d-byte limit", errBodyTooLarge, limit)
	}
	return buf.Bytes(), nil
}

// DefaultHTTPTimeout bounds one daemon request when the caller's context
// carries no deadline of its own. Sync rounds pass per-round deadlines;
// this is the safety net for bare-context callers (tools, tests), so no
// request can hang forever on a dead daemon.
const DefaultHTTPTimeout = 10 * time.Second

// Server is the `dimmunix-hist serve` daemon state: the authoritative
// merged history for a fleet of machines that do not share a filesystem.
// Every push joins into the in-memory history (and, when a backing store
// is configured, is persisted through it); every pull serves the current
// merged snapshot. The version is a monotonic sequence bumped only when
// a push actually changed something, so idle clients probing
// GET /v1/version never trigger re-pulls.
type Server struct {
	mu      sync.Mutex
	hist    *signature.History
	epoch   int64 // startup stamp: distinguishes daemon incarnations
	seq     uint64
	backing Store
	token   string // shared secret required on pushes ("" = open)
	maxBody int64  // pushed-snapshot limit: maxSnapshotBytes outside tests
	// backingDirty marks in-memory state the backing store has not
	// accepted yet (a failed persist); the next push retries even when
	// it merges nothing new, so durability is eventually restored.
	backingDirty bool

	// snap is the compact snapshot GET /v1/history serves, marshaled at
	// sequence snapSeq: a version is marshaled once however many clients
	// pull it, and rebuilt after a push that changed something (seq
	// starts at 1, so the zero snapSeq never matches).
	snap    []byte
	snapSeq uint64

	started time.Time
	stats   ServerStats
}

// ServerStats are the daemon's served-request counters, exposed on
// /statusz so fleet operators can see sync traffic advancing without
// reading logs. All fields are atomics; read them via StatsSnapshot.
type ServerStats struct {
	ProbesServed   atomic.Uint64 // GET /v1/version
	PullsServed    atomic.Uint64 // GET /v1/history
	PushesServed   atomic.Uint64 // POST /v1/history accepted (incl. no-ops)
	PushesChanged  atomic.Uint64 // pushes that changed the fleet history
	PushesRejected atomic.Uint64 // 401s (token missing/wrong)
	EntriesMerged  atomic.Uint64 // total entries changed by pushes
}

// ServerStatsSnapshot is the plain-value JSON form of ServerStats.
type ServerStatsSnapshot struct {
	ProbesServed   uint64 `json:"probes_served"`
	PullsServed    uint64 `json:"pulls_served"`
	PushesServed   uint64 `json:"pushes_served"`
	PushesChanged  uint64 `json:"pushes_changed"`
	PushesRejected uint64 `json:"pushes_rejected"`
	EntriesMerged  uint64 `json:"entries_merged"`
}

// StatsSnapshot returns the daemon's request counters.
func (s *Server) StatsSnapshot() ServerStatsSnapshot {
	return ServerStatsSnapshot{
		ProbesServed:   s.stats.ProbesServed.Load(),
		PullsServed:    s.stats.PullsServed.Load(),
		PushesServed:   s.stats.PushesServed.Load(),
		PushesChanged:  s.stats.PushesChanged.Load(),
		PushesRejected: s.stats.PushesRejected.Load(),
		EntriesMerged:  s.stats.EntriesMerged.Load(),
	}
}

// serverStatus is the /statusz document.
type serverStatus struct {
	Version       string              `json:"version"`
	UptimeSeconds int64               `json:"uptime_seconds"`
	Fingerprint   string              `json:"fingerprint,omitempty"`
	Signatures    []serverSigSummary  `json:"signatures"`
	Tombstones    int                 `json:"tombstones"`
	Counters      ServerStatsSnapshot `json:"counters"`
}

type serverSigSummary struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	Depth      int    `json:"depth"`
	Stacks     int    `json:"stacks"`
	Rev        uint64 `json:"rev"`
	Disabled   bool   `json:"disabled,omitempty"`
	Source     string `json:"source,omitempty"`
	AvoidCount uint64 `json:"avoid_count"`
	AbortCount uint64 `json:"abort_count"`
}

// NewServer builds a server, seeding from backing when non-nil (so a
// restarted daemon re-serves everything it had persisted).
func NewServer(backing Store) (*Server, error) {
	hist := signature.NewHistory()
	if backing != nil {
		loaded, _, err := backing.Load(context.Background())
		if err != nil {
			return nil, err
		}
		hist = loaded
	}
	return &Server{hist: hist, epoch: time.Now().UnixNano(), seq: 1, backing: backing, maxBody: maxSnapshotBytes, started: time.Now()}, nil
}

// History exposes the server's merged history (diagnostics, tests).
func (s *Server) History() *signature.History { return s.hist }

// SetToken requires the shared secret on every push: requests whose
// token header does not match (constant-time compare) are rejected with
// 401 instead of being joined into the fleet history. Reads stay open —
// the daemon trusts its network for pulls but no longer accepts state
// from anyone who can reach the port. "" removes the requirement.
func (s *Server) SetToken(token string) {
	s.mu.Lock()
	s.token = token
	s.mu.Unlock()
}

// authorized reports whether r may push. Constant-time compare keeps the
// shared secret safe from timing probes.
func (s *Server) authorized(r *http.Request) bool {
	s.mu.Lock()
	token := s.token
	s.mu.Unlock()
	if token == "" {
		return true
	}
	got := r.Header.Get(tokenHeader)
	return subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}

// Handler returns the HTTP API:
//
//	GET  /v1/version  → {"version":"<seq>"} — the cheap probe
//	GET  /v1/history  → format-v2 snapshot, version in X-Dimmunix-History-Version
//	POST /v1/history  → join the posted snapshot; returns {"version","prev","changed"},
//	                    prev being the version immediately before the join
//	                    (401 when a push token is configured and absent/wrong,
//	                    413 when the body exceeds the snapshot limit)
//	GET  /statusz     → daemon status JSON: version, per-signature summary,
//	                    served-request counters (the fleet observability
//	                    endpoint; `dimmunix-hist stats <url>` pretty-prints it)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.stats.ProbesServed.Add(1)
		s.mu.Lock()
		v := s.versionLocked()
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"version": string(v)})
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.mu.Lock()
		st := serverStatus{
			Version:       string(s.versionLocked()),
			UptimeSeconds: int64(time.Since(s.started).Seconds()),
			Fingerprint:   s.hist.Fingerprint(),
			Signatures:    []serverSigSummary{},
			Tombstones:    len(s.hist.Tombstones()),
			Counters:      s.StatsSnapshot(),
		}
		for _, sig := range s.hist.Snapshot() {
			st.Signatures = append(st.Signatures, serverSigSummary{
				ID: sig.ID, Kind: sig.Kind.String(), Depth: sig.Depth,
				Stacks: sig.Size(), Rev: sig.Rev, Disabled: sig.Disabled,
				Source:     sig.Source,
				AvoidCount: sig.AvoidCount, AbortCount: sig.AbortCount,
			})
		}
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
	mux.HandleFunc("/v1/history", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			s.stats.PullsServed.Add(1)
			s.mu.Lock()
			data, err := s.snapshotLocked()
			v := s.versionLocked()
			s.mu.Unlock()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set(versionHeader, string(v))
			w.Write(data)
		case http.MethodPost:
			if !s.authorized(r) {
				s.stats.PushesRejected.Add(1)
				http.Error(w, "push token missing or wrong", http.StatusUnauthorized)
				return
			}
			s.stats.PushesServed.Add(1)
			body, err := readBody(r.Body, r.ContentLength, s.maxBody)
			if err != nil {
				code := http.StatusBadRequest
				if errors.Is(err, errBodyTooLarge) {
					code = http.StatusRequestEntityTooLarge
				}
				http.Error(w, err.Error(), code)
				return
			}
			in := signature.NewHistory()
			if err := in.UnmarshalJSON(body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.mu.Lock()
			prev := s.versionLocked()
			changed := s.hist.Merge(in)
			if changed > 0 {
				s.stats.PushesChanged.Add(1)
				s.stats.EntriesMerged.Add(uint64(changed))
				s.seq++
				if fp := in.Fingerprint(); fp != "" && s.hist.Fingerprint() == "" {
					s.hist.SetFingerprint(fp)
				}
			}
			if s.backing != nil && (changed > 0 || s.backingDirty) {
				// The persist runs while s.mu is held, so it must be
				// bounded server-side: a deadline-less client (curl) plus
				// a wedged backing lock would otherwise block every
				// endpoint for the whole fleet.
				pctx, cancel := context.WithTimeout(r.Context(), DefaultHTTPTimeout)
				_, err := s.backing.Push(pctx, s.hist)
				cancel()
				if err != nil {
					// The merge already applied in memory; remember that
					// the backing store is behind so a later push (even a
					// no-change one) retries the persist.
					s.backingDirty = true
					s.mu.Unlock()
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				s.backingDirty = false
			}
			v := s.versionLocked()
			s.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"version": string(v), "prev": string(prev), "changed": changed})
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	return mux
}

// snapshotLocked returns the compact snapshot of the current sequence,
// marshaling it on the first pull after a change. The returned bytes are
// never written again, so callers may use them after releasing s.mu.
func (s *Server) snapshotLocked() ([]byte, error) {
	if s.snapSeq != s.seq {
		data, err := s.hist.MarshalJSONCompact()
		if err != nil {
			return nil, err
		}
		s.snap, s.snapSeq = data, s.seq
	}
	return s.snap, nil
}

// versionLocked prefixes the push sequence with the daemon's startup
// epoch: a restarted daemon (whose sequence restarts at 1) can never
// collide with a token a client remembered from the previous
// incarnation — clients just re-pull once and reconverge.
func (s *Server) versionLocked() Version {
	return Version(fmt.Sprintf("%d-%d", s.epoch, s.seq))
}

// HTTPStore is the client backend speaking to a Server. Every request
// runs under the caller's context (with DefaultHTTPTimeout as the
// fallback deadline), so sync rounds and shutdown publishes are bounded
// by their callers, not by a transport-level constant.
type HTTPStore struct {
	base    string
	c       *http.Client
	maxBody int64 // pulled-snapshot limit: maxSnapshotBytes outside tests
	// token is atomic so SetToken on a live store (e.g. rotating the
	// secret while the sync loop runs) never races in-flight requests.
	token atomic.Value // string
}

// NewHTTPStore returns a store talking to the daemon at base
// (e.g. "http://hist.internal:7676").
func NewHTTPStore(base string) *HTTPStore {
	return &HTTPStore{
		base:    strings.TrimSuffix(base, "/"),
		c:       &http.Client{},
		maxBody: maxSnapshotBytes,
	}
}

// Base returns the daemon base URL.
func (s *HTTPStore) Base() string { return s.base }

// SetToken attaches the daemon's shared-secret push token to every
// request (see Server.SetToken). Open reads it from DIMMUNIX_SYNC_TOKEN.
// Safe to call concurrently with in-flight requests.
func (s *HTTPStore) SetToken(token string) { s.token.Store(token) }

// do runs one request under ctx, adding the fallback deadline when the
// caller supplied none.
func (s *HTTPStore) do(ctx context.Context, method, url string, body io.Reader) (*http.Response, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultHTTPTimeout)
		// The response body must stay readable after do returns; tie the
		// timeout's release to the body via the response closer below.
		resp, err := s.doReq(ctx, method, url, body)
		if err != nil {
			cancel()
			return nil, err
		}
		resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
		return resp, nil
	}
	return s.doReq(ctx, method, url, body)
}

func (s *HTTPStore) doReq(ctx context.Context, method, url string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tok, _ := s.token.Load().(string); tok != "" {
		req.Header.Set(tokenHeader, tok)
	}
	resp, err := s.c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	return resp, nil
}

// cancelBody releases the fallback timeout when the response body is
// closed, keeping the context alive for exactly as long as the caller
// reads.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// Load pulls the daemon's merged snapshot.
func (s *HTTPStore) Load(ctx context.Context) (*signature.History, Version, error) {
	resp, err := s.do(ctx, http.MethodGet, s.base+"/v1/history", nil)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", httpError("pull", resp)
	}
	body, err := readBody(resp.Body, resp.ContentLength, s.maxBody)
	if err != nil {
		return nil, "", err
	}
	h := signature.NewHistory()
	if err := h.UnmarshalJSON(body); err != nil {
		return nil, "", err
	}
	return h, Version(resp.Header.Get(versionHeader)), nil
}

// Push posts h to the daemon, which joins it into the fleet history.
func (s *HTTPStore) Push(ctx context.Context, h *signature.History) (Version, error) {
	now, _, err := s.PushPrev(ctx, h)
	return now, err
}

// PushPrev is Push that also returns the daemon's version immediately
// before the join ("" from a daemon that predates the "prev" reply
// field). prev equal to the version the caller last pulled means no
// other writer came in between, so now holds nothing the caller lacks —
// the sync round uses that to skip re-pulling its own push.
func (s *HTTPStore) PushPrev(ctx context.Context, h *signature.History) (now, prev Version, err error) {
	data, err := h.MarshalJSONCompact()
	if err != nil {
		return "", "", err
	}
	resp, err := s.do(ctx, http.MethodPost, s.base+"/v1/history", bytes.NewReader(data))
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", "", httpError("push", resp)
	}
	var out struct {
		Version string `json:"version"`
		Prev    string `json:"prev"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", "", fmt.Errorf("histstore: %w", err)
	}
	return Version(out.Version), Version(out.Prev), nil
}

// Probe asks the daemon for its version sequence.
func (s *HTTPStore) Probe(ctx context.Context) (Version, error) {
	resp, err := s.do(ctx, http.MethodGet, s.base+"/v1/version", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", httpError("probe", resp)
	}
	var out struct {
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("histstore: %w", err)
	}
	return Version(out.Version), nil
}

// Close is a no-op (the daemon owns the state).
func (s *HTTPStore) Close() error {
	s.c.CloseIdleConnections()
	return nil
}

func httpError(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	return fmt.Errorf("histstore: %s: %s: %s", op, resp.Status, strings.TrimSpace(string(msg)))
}
