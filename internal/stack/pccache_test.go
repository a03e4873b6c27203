package stack

import (
	"sync"
	"testing"
)

func TestPCCacheBoundedEntry(t *testing.T) {
	c := NewPCCache()
	it := NewInterner()
	rep1, rep2, exact := it.Intern(Synthetic(1, 4)), it.Intern(Synthetic(2, 4)), it.Intern(Synthetic(3, 4))
	pcs := []uintptr{0x10, 0x20, 0x30}

	c.PutAt(pcs, rep1, 3)
	if _, ok := c.Get(pcs); ok {
		t.Fatal("a depth-bounded entry answered Get: a representative is not the exact stack")
	}
	if in, ok := c.GetAt(pcs, 3); !ok || in != rep1 {
		t.Fatalf("GetAt at the entry's epoch = %v, %v; want rep1", in, ok)
	}
	for _, ep := range []uint64{2, 4} {
		if _, ok := c.GetAt(pcs, ep); ok {
			t.Fatalf("GetAt(epoch %d) hit an entry recorded at epoch 3", ep)
		}
	}

	c.PutAt(pcs, rep2, 4)
	if n := c.Len(); n != 1 {
		t.Fatalf("re-put at a newer epoch left %d entries, want the stale one replaced in place", n)
	}
	if _, ok := c.GetAt(pcs, 3); ok {
		t.Fatal("the replaced epoch still answers")
	}
	c.PutAt(pcs, rep1, 3) // a lagging writer: epochs only move forward
	if in, ok := c.GetAt(pcs, 4); !ok || in != rep2 {
		t.Fatalf("GetAt after replacement = %v, %v; want rep2", in, ok)
	}

	// The same PCs as a complete capture are a separate, permanent entry.
	c.Put(pcs, exact)
	c.Put(pcs, rep1) // first resolution stands
	if in, ok := c.Get(pcs); !ok || in != exact {
		t.Fatalf("Get = %v, %v; want the complete capture's stack", in, ok)
	}
	if in, _ := c.GetAt(pcs, 4); in != rep2 {
		t.Fatal("a complete entry answered for the bounded key")
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

// TestPCCacheConcurrentSameKey hammers one key from several goroutines,
// each moving it through rising epochs: a hit at epoch e must carry the
// stack recorded for e, and -race must stay quiet.
func TestPCCacheConcurrentSameKey(t *testing.T) {
	const epochs = 200
	c := NewPCCache()
	it := NewInterner()
	reps := make([]*Interned, epochs+1)
	for ep := range reps {
		reps[ep] = it.Intern(Synthetic(uint64(ep), 3))
	}
	pcs := []uintptr{0xa, 0xb}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ep := uint64(1); ep <= epochs; ep++ {
				if in, ok := c.GetAt(pcs, ep); ok && in != reps[ep] {
					t.Errorf("GetAt(epoch %d) returned another epoch's stack", ep)
				}
				c.PutAt(pcs, reps[ep], ep)
				c.Put(pcs, reps[0])
				if in, ok := c.Get(pcs); !ok || in != reps[0] {
					t.Errorf("Get = %v, %v; want the complete entry", in, ok)
				}
			}
		}()
	}
	wg.Wait()
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d after %d epochs on one key, want 2 (one bounded, one complete)", n, epochs)
	}
}
