package main

import (
	"bytes"
	"strings"
	"testing"

	"fbf/internal/store"
)

// flipWrite corrupts one byte of the n-th chunk the engine writes. The
// engine writes a stripe only once it has passed the zero test, so the
// lie gets past the engine's own check: only the pass's comparison with
// the seed can see it.
type flipWrite struct {
	store.Backend
	n, written int
}

func (f *flipWrite) WriteChunk(a store.Addr, data []byte) error {
	if f.written++; f.written == f.n {
		data = bytes.Clone(data)
		data[len(data)/2] ^= 0x01
	}
	return f.Backend.WriteChunk(a, data)
}

// TestEnginePass runs the engine pass on the four codes at p=5, then
// again with one written byte flipped, once in the partial-stripe
// rebuild (chain by chain) and once in the three-dead-disks one
// (decoded): each flip must fail the pass on the flipped chunk, which
// shows that the pass compares the bytes itself rather than trusting the
// engine's verdict.
func TestEnginePass(t *testing.T) {
	for _, name := range []string{"star", "triplestar", "tip", "hdd1"} {
		t.Run(name, func(t *testing.T) {
			traced, killed, err := enginePass(name, 5, 64, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if traced == 0 || killed == 0 {
				t.Fatalf("%d chunks of the trace and %d of the dead disks rebuilt; the pass checked an order it never ran", traced, killed)
			}
			for _, n := range []int{1, traced + 1} {
				wrap := func(b store.Backend) store.Backend { return &flipWrite{Backend: b, n: n} }
				if _, _, err := enginePass(name, 5, 64, 1, wrap); err == nil || !strings.Contains(err.Error(), "differs from the stripe recomputed from the seed") {
					t.Fatalf("write %d flipped: pass returned %v, want the comparison to fail", n, err)
				}
			}
		})
	}
}
