package event

import "testing"

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Request:    "request",
		Go:         "go",
		Yield:      "yield",
		Acquired:   "acquired",
		Release:    "release",
		Cancel:     "cancel",
		ThreadExit: "thread-exit",
		Kind(200):  "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// collect returns an emit func that keeps every event and the slice it
// appends to.
func collect() (*[]Event, func(Event)) {
	var evs []Event
	return &evs, func(ev Event) { evs = append(evs, ev) }
}

func TestBufferAddPublishesAtBatchSize(t *testing.T) {
	evs, emit := collect()
	var b Buffer
	for i := 1; i < BatchSize; i++ {
		b.Add(7, Record{Kind: Acquired, LID: uint64(i)}, BatchSize, emit)
	}
	if len(*evs) != 0 {
		t.Fatalf("published %d events before the batch filled", len(*evs))
	}
	b.Add(7, Record{Kind: Release, LID: BatchSize}, BatchSize, emit)
	if len(*evs) != 1 {
		t.Fatalf("published %d events at the batch size, want 1", len(*evs))
	}
	ev := (*evs)[0]
	if ev.Kind != Batch || ev.TID != 7 || len(*ev.Recs) != BatchSize {
		t.Fatalf("batch = kind %v tid %d, %d records; want batch, tid 7, %d records", ev.Kind, ev.TID, len(*ev.Recs), BatchSize)
	}
	for i, r := range *ev.Recs {
		if r.LID != uint64(i+1) {
			t.Fatalf("record %d has lock %d: records out of order", i, r.LID)
		}
	}
	b.Flush(7, emit)
	if len(*evs) != 1 {
		t.Fatal("a published batch left records behind")
	}
}

func TestBufferFlushEmpties(t *testing.T) {
	evs, emit := collect()
	var b Buffer
	b.Flush(1, emit)
	if len(*evs) != 0 {
		t.Fatal("flushing an empty buffer published an event")
	}
	b.Add(1, Record{Kind: Acquired, LID: 1}, BatchSize, emit)
	b.Add(1, Record{Kind: Release, LID: 1}, BatchSize, emit)
	b.Flush(1, emit)
	if len(*evs) != 1 || len(*(*evs)[0].Recs) != 2 {
		t.Fatalf("flush published %d events, want one batch of 2 records", len(*evs))
	}
	b.Flush(1, emit)
	if len(*evs) != 1 {
		t.Fatal("a second flush republished records")
	}
	b.Add(1, Record{Kind: Acquired, LID: 2}, BatchSize, emit)
	b.Flush(1, emit)
	if len(*evs) != 2 || len(*(*evs)[1].Recs) != 1 {
		t.Fatal("the buffer did not start empty after a flush")
	}
}

// TestElideRelease pins ElideRelease's adjacency rule: it pops only the
// newest record, only if that is Acquired of the same lock.
func TestElideRelease(t *testing.T) {
	for _, c := range []struct {
		name string
		recs []Record
		lid  uint64
		want bool
	}{
		{"adjacent-acquired", []Record{{Kind: Acquired, LID: 1}}, 1, true},
		{"other-lock", []Record{{Kind: Acquired, LID: 2}}, 1, false},
		{"intervening-record", []Record{{Kind: Acquired, LID: 1}, {Kind: Request, LID: 2}}, 1, false},
		{"not-acquired", []Record{{Kind: Go, LID: 1}}, 1, false},
		{"empty", nil, 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			evs, emit := collect()
			var b Buffer
			for _, r := range c.recs {
				b.Add(1, r, BatchSize, emit)
			}
			if got := b.ElideRelease(c.lid); got != c.want {
				t.Fatalf("ElideRelease(%d) = %v, want %v", c.lid, got, c.want)
			}
			b.Flush(1, emit)
			left, wantLeft := 0, len(c.recs)
			if len(*evs) > 0 {
				left = len(*(*evs)[0].Recs)
			}
			if c.want {
				wantLeft--
			}
			if left != wantLeft {
				t.Fatalf("%d records left after ElideRelease, want %d", left, wantLeft)
			}
		})
	}
}

// TestElideReleaseAfterSteal: once a flush has published the Acquired
// record, the release has nothing to pair with.
func TestElideReleaseAfterSteal(t *testing.T) {
	_, emit := collect()
	var b Buffer
	b.Add(1, Record{Kind: Acquired, LID: 1}, BatchSize, emit)
	b.Flush(1, emit)
	if b.ElideRelease(1) {
		t.Fatal("ElideRelease paired with an Acquired record already published")
	}
}
