package signature

import (
	"testing"

	"dimmunix/internal/stack"
)

// fleetSized builds the history shape the fleet benchmark syncs: n
// signatures of two synthetic depth-4 stacks each.
func fleetSized(n int) *History {
	h := NewHistory()
	for i := 0; i < n; i++ {
		base := uint64(1000 + 2*i)
		h.Add(New(Deadlock, []stack.Stack{stack.Synthetic(base, 4), stack.Synthetic(base+1, 4)}, 4))
	}
	return h
}

// TestCodecAllocationBounds pins the codec's allocation counts on a
// 128-signature snapshot, ≈ 15 % above what the single-pass codec does
// (1 448 to decode, 393 to marshal; the double-work codec before it:
// 5 794 and 2 803).
// Tier-1 never compiles benchmark/, so this is where a second clone, a
// re-render or a zero calib object coming back turns a test red.
func TestCodecAllocationBounds(t *testing.T) {
	const (
		decodeBound  = 1670
		marshalBound = 450
	)
	h := fleetSized(128)
	data, err := h.MarshalJSONCompact()
	if err != nil {
		t.Fatal(err)
	}
	in := NewHistory()
	decode := testing.AllocsPerRun(10, func() {
		if err := in.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	marshal := testing.AllocsPerRun(10, func() {
		if _, err := h.MarshalJSONCompact(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("128 signatures, %d bytes: decode %.0f allocs, compact marshal %.0f allocs", len(data), decode, marshal)
	if decode > decodeBound {
		t.Errorf("decode: %.0f allocs, bound %d", decode, decodeBound)
	}
	if marshal > marshalBound {
		t.Errorf("compact marshal: %.0f allocs, bound %d", marshal, marshalBound)
	}
}

func BenchmarkHistoryDecode128(b *testing.B) {
	data, err := fleetSized(128).MarshalJSONCompact()
	if err != nil {
		b.Fatal(err)
	}
	in := NewHistory()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		if err := in.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistoryMarshalCompact128(b *testing.B) {
	h := fleetSized(128)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := h.MarshalJSONCompact(); err != nil {
			b.Fatal(err)
		}
	}
}
