// Tests for the history codec's wire contract: files and daemons of the
// build before the single-pass codec (testdata/, written by that build)
// and of this one read each other, signature IDs never move, a failed
// decode leaves the receiver as it was, and hostile bytes never panic.
package signature

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dimmunix/internal/calib"
	"dimmunix/internal/stack"
)

// refID is the ID definition the goldens were written under: sha256 over
// each canonical stack's String() followed by a NUL, first 16 hex digits,
// the stacks ordered by (Hash, String).
func refID(stacks []stack.Stack) string {
	canon := slices.Clone(stacks)
	sort.Slice(canon, func(i, j int) bool {
		hi, hj := canon[i].Hash(), canon[j].Hash()
		if hi != hj {
			return hi < hj
		}
		return canon[i].String() < canon[j].String()
	})
	h := sha256.New()
	for _, s := range canon {
		h.Write([]byte(s.String()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// refDecode is the decoder the goldens' build ran — one New per entry,
// which clones, re-sorts and re-renders every stack. Test-only: the
// reference the single-pass decoder is compared against.
func refDecode(data []byte) (*History, error) {
	var p persistedHistory
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	if p.Format > FormatVersion {
		return nil, fmt.Errorf("format %d", p.Format)
	}
	h := NewHistory()
	h.fingerprint = p.Fingerprint
	for _, pt := range p.Tombstones {
		h.tombs[pt.ID] = Tombstone{ID: pt.ID, Rev: max(pt.Rev, 1), DeletedUnix: pt.DeletedUnix}
	}
	for _, ps := range p.Signatures {
		kind := Deadlock
		if ps.Kind == "starvation" {
			kind = Starvation
		}
		var stacks []stack.Stack
		for _, raw := range ps.Stacks {
			st, err := stack.Parse(raw)
			if err != nil {
				return nil, err
			}
			stacks = append(stacks, st)
		}
		s := New(kind, stacks, ps.Depth)
		s.Disabled, s.Rev, s.Source = ps.Disabled, max(ps.Rev, 1), ps.Source
		if ps.CreatedUnix != 0 {
			s.CreatedUnix = ps.CreatedUnix
		}
		s.AvoidCount, s.AbortCount, s.FPCount, s.TPCount = ps.AvoidCount, ps.AbortCount, ps.FPCount, ps.TPCount
		s.Calib = ps.Calib
		if _, dup := h.byID[s.ID]; dup {
			continue
		}
		if t, ok := h.tombs[s.ID]; ok {
			if s.Rev <= t.Rev {
				continue
			}
			delete(h.tombs, s.ID)
		}
		h.sigs = append(h.sigs, s)
		h.byID[s.ID] = s
	}
	return h, nil
}

// diffHistories describes the first difference between two histories'
// persisted content ("" when none): entry order, IDs, stacks, revisions,
// flags, counters, calibration state, tombstones and fingerprint.
// CreatedUnix is compared only when created is set — an entry the wire
// gave no archive time is stamped with the decode's clock.
func diffHistories(a, b *History, created bool) string {
	if a.Fingerprint() != b.Fingerprint() {
		return fmt.Sprintf("fingerprint %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	if ta, tb := a.Tombstones(), b.Tombstones(); !reflect.DeepEqual(ta, tb) {
		return fmt.Sprintf("tombstones %+v vs %+v", ta, tb)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		return fmt.Sprintf("%d entries vs %d", len(sa), len(sb))
	}
	for i := range sa {
		x, y := *sa[i], *sb[i]
		if !created {
			x.CreatedUnix, y.CreatedUnix = 0, 0
		}
		if !reflect.DeepEqual(x, y) {
			return fmt.Sprintf("entry %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var goldens = []string{"v1.json", "v2_compact.json", "v2_indented.json"}

// wireIDs returns the "id" fields a snapshot carries, in order — what
// the writing build computed, which the decoder ignores and recomputes.
func wireIDs(t testing.TB, data []byte) []string {
	t.Helper()
	var p persistedHistory
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(p.Signatures))
	for i, ps := range p.Signatures {
		ids[i] = ps.ID
	}
	return ids
}

// TestGoldensFromThePreviousCodec: bytes the previous build wrote —
// \u003c separators, an explicit all-zero calib on every entry — decode
// to the IDs that build computed, equal its own decoder's result, and
// survive a re-encode in either form with nothing lost.
func TestGoldensFromThePreviousCodec(t *testing.T) {
	for _, name := range goldens {
		data := readGolden(t, name)
		if !bytes.Contains(data, []byte(`\u003c`)) {
			t.Fatalf("%s: not written by the HTML-escaping codec", name)
		}
		h := NewHistory()
		if err := h.UnmarshalJSON(data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []string
		for _, s := range h.Snapshot() {
			got = append(got, s.ID)
		}
		if want := wireIDs(t, data); !slices.Equal(got, want) {
			t.Errorf("%s: recomputed IDs %v, the writing build's %v", name, got, want)
		}
		ref, err := refDecode(data)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffHistories(h, ref, false); d != "" {
			t.Errorf("%s: decoder and reference decoder disagree: %s", name, d)
		}
		for form, marshal := range map[string]func() ([]byte, error){"indented": h.MarshalJSON, "compact": h.MarshalJSONCompact} {
			out, err := marshal()
			if err != nil {
				t.Fatal(err)
			}
			back := NewHistory()
			if err := back.UnmarshalJSON(out); err != nil {
				t.Fatalf("%s re-encoded %s: %v", name, form, err)
			}
			if d := diffHistories(h, back, true); d != "" {
				t.Errorf("%s re-encoded %s: %s", name, form, d)
			}
			// The previous build reads what this one writes.
			old, err := refDecode(out)
			if err != nil {
				t.Fatalf("%s re-encoded %s through the reference decoder: %v", name, form, err)
			}
			if d := diffHistories(h, old, true); d != "" {
				t.Errorf("%s re-encoded %s through the reference decoder: %s", name, form, d)
			}
		}
	}
}

// TestGoldenV2Content spells out what the v2 goldens hold, so "decodes
// equal to its re-encoded form" cannot be satisfied by losing a field on
// both sides.
func TestGoldenV2Content(t *testing.T) {
	for _, name := range []string{"v2_compact.json", "v2_indented.json"} {
		h := NewHistory()
		if err := h.UnmarshalJSON(readGolden(t, name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.Fingerprint() != "build-parent-dc909ac" || h.Len() != 4 {
			t.Fatalf("%s: fingerprint %q, %d entries", name, h.Fingerprint(), h.Len())
		}
		want := []Tombstone{{ID: "0fa2609fa2669ec3", Rev: 2, DeletedUnix: 1700000099}}
		if got := h.Tombstones(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: tombstones %+v", name, got)
		}
		plain := h.Get("c6757ee59ce8f16c")
		if plain == nil || plain.Rev != 1 || plain.Depth != 4 || plain.CreatedUnix != 1700000001 ||
			plain.AvoidCount != 17 || plain.AbortCount != 2 || plain.FPCount != 3 || plain.TPCount != 14 ||
			!reflect.DeepEqual(plain.Calib, calib.State{}) {
			t.Errorf("%s: counted entry %+v", name, plain)
		}
		if s := h.Get("782cef9a48541484"); s == nil || !s.Disabled || s.Rev != 2 || s.Depth != 2 {
			t.Errorf("%s: disabled entry %+v", name, s)
		}
		if s := h.Get("3264bb8e259e6c34"); s == nil || s.Source != SourcePredicted || s.Kind != Starvation || len(s.Stacks) != 3 {
			t.Errorf("%s: predicted entry %+v", name, s)
		}
		ladder := calib.State{On: true, Rung: 3, MaxDepth: 5, NA: 20, NT: 10000,
			Avoids: []uint64{20, 20, 7, 0, 0}, FPs: []uint64{5, 1, 0, 0, 0}}
		if s := h.Get("6249e1c07c62a0cf"); s == nil || s.Source != SourceStatic || !reflect.DeepEqual(s.Calib, ladder) {
			t.Errorf("%s: calibrating entry %+v", name, s)
		}
	}
}

// TestSignatureIDsNeverMove pins idOf to the definition every archived
// history was written under.
func TestSignatureIDsNeverMove(t *testing.T) {
	literal := []struct {
		id     string
		stacks []stack.Stack
	}{
		{"c6757ee59ce8f16c", []stack.Stack{stack.Synthetic(1, 4), stack.Synthetic(2, 4)}},
		{"782cef9a48541484", []stack.Stack{stack.Synthetic(4, 5), stack.Synthetic(3, 3)}},
		{"3264bb8e259e6c34", []stack.Stack{
			{{Func: "main.worker.func1", File: "main.go", Line: 42}, {Func: "main.日本語", File: "ユニ.go", Line: 100}},
			{{Func: "example.com/pkg.(*Pool[go.shape.int]).Get", File: "pool.go", Line: 12345}, {Func: "example.com/mod@v2.3.1/pkg.serve·dwrap·1:fm", File: "srv.go", Line: 7}},
			{{Func: "main.worker.func1", File: "main.go", Line: 42}, {Func: "main.日本語", File: "ユニ.go", Line: 100}},
		}},
	}
	for _, c := range literal {
		if got := New(Deadlock, c.stacks, 4).ID; got != c.id {
			t.Errorf("New(%v).ID = %s, want %s", c.stacks, got, c.id)
		}
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		stacks := make([]stack.Stack, r.Intn(6)) // 0..5 stacks, duplicates likely
		for j := range stacks {
			stacks[j] = stack.Synthetic(uint64(r.Intn(8)), 1+r.Intn(40))
		}
		if got, want := New(Deadlock, stacks, 0).ID, refID(stacks); got != want {
			t.Fatalf("New(%v).ID = %s, reference definition %s", stacks, got, want)
		}
	}
}

// TestWireOmitsPadding: an uncalibrated entry carries no calib object
// and no \u003c; a live ladder is still written and read back.
func TestWireOmitsPadding(t *testing.T) {
	h := NewHistory()
	h.Add(New(Deadlock, []Stack{syn(1), syn(2)}, 4))
	for _, marshal := range []func() ([]byte, error){h.MarshalJSON, h.MarshalJSONCompact} {
		out, err := marshal()
		if err != nil {
			t.Fatal(err)
		}
		for _, pad := range []string{`\u003c`, `"calib"`} {
			if bytes.Contains(out, []byte(pad)) {
				t.Errorf("uncalibrated history carries %s:\n%s", pad, out)
			}
		}
		if !bytes.Contains(out, []byte(" < ")) || out[len(out)-1] == '\n' {
			t.Errorf("want literal separators and no trailing newline:\n%q", out)
		}
	}

	armed := New(Deadlock, []Stack{syn(3), syn(4)}, 4)
	armed.Calib = calib.NewState(3, 5, 100)
	armed.Calib.Avoids[0], armed.Calib.FPs[0] = 4, 1
	h.Add(armed)
	out, err := h.MarshalJSONCompact()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(out, []byte(`"calib"`)); n != 1 {
		t.Fatalf("%d calib objects for one armed ladder:\n%s", n, out)
	}
	back := NewHistory()
	if err := back.UnmarshalJSON(out); err != nil {
		t.Fatal(err)
	}
	if d := diffHistories(h, back, true); d != "" {
		t.Errorf("armed ladder did not round-trip: %s", d)
	}
}

// badSecondEntry is a snapshot whose first entry is fine and whose second
// has a frame without a line number.
func badSecondEntry() []byte {
	return []byte(`{"format":2,"fingerprint":"intruder","signatures":[` +
		`{"id":"x","kind":"deadlock","stacks":["` + syn(50).String() + `"],"depth":4},` +
		`{"id":"y","kind":"deadlock","stacks":["a@f.go:1 < broken"],"depth":4}],` +
		`"tombstones":[{"id":"z","rev":3}]}`)
}

// TestUnmarshalFailureLeavesHistoryUntouched: a decode that fails part
// way is all-or-nothing — the set, tombstones, fingerprint, version and
// the published danger index stay exactly as they were (the lock-holding
// decoder returned with the set half-replaced and the old index live).
func TestUnmarshalFailureLeavesHistoryUntouched(t *testing.T) {
	h := NewHistory()
	h.SetFingerprint("mine")
	h.Add(New(Deadlock, []Stack{syn(1), syn(2)}, 4))
	gone := New(Deadlock, []Stack{syn(3), syn(4)}, 4)
	h.Add(gone)
	h.Remove(gone.ID)
	ids, version, idx, tombs := h.SortedIDs(), h.Version(), h.Danger(), h.Tombstones()

	for _, bad := range [][]byte{badSecondEntry(), []byte(`{"format":99}`), []byte(`{"format":2,"signatures":[`)} {
		if err := h.UnmarshalJSON(bad); err == nil {
			t.Fatalf("decode of %q succeeded", bad)
		}
		if got := h.SortedIDs(); !slices.Equal(got, ids) {
			t.Errorf("set changed: %v, was %v", got, ids)
		}
		if h.Version() != version || h.Danger() != idx || h.Danger().Epoch() != version {
			t.Errorf("version %d / index epoch %d, were %d / %d", h.Version(), h.Danger().Epoch(), version, idx.Epoch())
		}
		if h.Fingerprint() != "mine" || !reflect.DeepEqual(h.Tombstones(), tombs) {
			t.Errorf("fingerprint %q, tombstones %+v", h.Fingerprint(), h.Tombstones())
		}
		if !h.Danger().Dangerous(syn(1)) {
			t.Error("the surviving signature is no longer indexed")
		}
	}
}

// TestReadersRunDuringDecode: the new set is built with no lock held, so
// readers keep running through a large decode and only ever see one whole
// set or the other, each with a danger index no older than it (run under
// -race in CI).
func TestReadersRunDuringDecode(t *testing.T) {
	small, err := fleetSized(64).MarshalJSONCompact()
	if err != nil {
		t.Fatal(err)
	}
	large, err := fleetSized(512).MarshalJSONCompact()
	if err != nil {
		t.Fatal(err)
	}
	h := NewHistory()
	if err := h.UnmarshalJSON(small); err != nil {
		t.Fatal(err)
	}
	probe := stack.Synthetic(1000, 4) // in both sets
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := h.Snapshot()
				if n := len(snap); n != 64 && n != 512 {
					t.Errorf("reader saw a set of %d entries", n)
					return
				}
				for _, s := range snap[:8] {
					if h.Get(s.ID) == nil && len(h.Snapshot()) == len(snap) {
						t.Errorf("entry %s in the set but not in the ID map", s.ID)
						return
					}
				}
				if !h.Danger().Dangerous(probe) {
					t.Error("a stack present in both sets classified safe")
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		data := large
		if i%2 == 1 {
			data = small
		}
		if err := h.UnmarshalJSON(data); err != nil {
			t.Error(err)
			break
		}
		if i%5 == 4 {
			if err := h.UnmarshalJSON(badSecondEntry()); err == nil {
				t.Error("bad snapshot decoded")
			}
		}
	}
	close(done)
	wg.Wait()
}

// FuzzHistoryUnmarshal feeds the decoder bytes it did not write. It must
// never panic; a rejected input leaves the receiver untouched; an
// accepted one yields entries whose IDs are New's, re-encodes to a fixed
// point, and is exactly what the reference decoder makes of it.
func FuzzHistoryUnmarshal(f *testing.F) {
	for _, name := range goldens {
		data := readGolden(f, name)
		f.Add(data)
		for _, cut := range []int{1, len(data) / 3, len(data) / 2, len(data) - 2} {
			f.Add(data[:cut]) // torn
		}
	}
	one := `{"id":"a","kind":"deadlock","stacks":["f@a.go:1 < g@a.go:2","h@b.go:3"],"depth":2,"rev":3}`
	f.Add([]byte(`{"format":2,"signatures":[` + one + `,` + one + `]}`))                                                                                 // duplicated entry
	f.Add([]byte(`{"format":2,"signatures":[` + one + `],"tombstones":[{"id":"` + refID(mustParse("f@a.go:1 < g@a.go:2", "h@b.go:3")) + `","rev":3}]}`)) // live and buried
	f.Add([]byte(`{"format":2,"signatures":[{"kind":"starvation","stacks":["h@b.go:3","f@a.go:1 < g@a.go:2"],"depth":-1,"calib":{"On":true,"Rung":9,"Avoids":[1]}}]}`))
	f.Add(badSecondEntry())
	f.Add([]byte(`{"format":3}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHistory()
		keep := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
		h.Add(keep)
		version, idx := h.Version(), h.Danger()

		ref, refErr := refDecode(data)
		err := h.UnmarshalJSON(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder error %v, reference decoder error %v", err, refErr)
		}
		if err != nil {
			if h.Len() != 1 || h.Get(keep.ID) != keep || h.Version() != version || h.Danger() != idx {
				t.Fatalf("rejected input changed the receiver: %v", h.SortedIDs())
			}
			return
		}
		if d := diffHistories(h, ref, false); d != "" {
			t.Fatalf("decoder and reference decoder disagree: %s", d)
		}
		if h.Version() <= version || h.Danger().Epoch() != h.Version() {
			t.Fatalf("version %d (was %d), index epoch %d", h.Version(), version, h.Danger().Epoch())
		}
		for _, s := range h.Snapshot() {
			if fresh := New(s.Kind, s.Stacks, s.Depth); fresh.ID != s.ID || !reflect.DeepEqual(fresh.Stacks, s.Stacks) {
				t.Fatalf("entry %s is not New's canonical form %s", s.ID, fresh.ID)
			}
		}
		out, err := h.MarshalJSONCompact()
		if err != nil {
			t.Fatal(err)
		}
		back := NewHistory()
		if err := back.UnmarshalJSON(out); err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, out)
		}
		again, err := back.MarshalJSONCompact()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("marshal → decode is not a fixed point:\n%s\n%s", out, again)
		}
	})
}

func mustParse(raws ...string) []stack.Stack {
	out := make([]stack.Stack, len(raws))
	for i, raw := range raws {
		st, err := stack.Parse(raw)
		if err != nil {
			panic(err)
		}
		out[i] = st
	}
	return out
}
