package faultstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fbf/internal/store"
)

// crashFixture extends the store conformance registry with a "reopen"
// notion: open constructs a fresh store, reopen models the next process
// attaching to the same medium (for dirstore that re-runs the orphan
// sweep; memstore media live in the shared state).
type crashFixture struct {
	open   func(t *testing.T) store.Backend
	reopen func(t *testing.T) store.Backend
}

func crashFixtures(t *testing.T) map[string]crashFixture {
	root := t.TempDir()
	mem := store.NewMem()
	return map[string]crashFixture{
		"dirstore": {
			open: func(t *testing.T) store.Backend {
				d, err := store.OpenDir(root)
				if err != nil {
					t.Fatal(err)
				}
				return d
			},
			reopen: func(t *testing.T) store.Backend {
				d, err := store.OpenDir(root)
				if err != nil {
					t.Fatal(err)
				}
				return d
			},
		},
		"memstore": {
			open:   func(t *testing.T) store.Backend { return mem },
			reopen: func(t *testing.T) store.Backend { return mem },
		},
	}
}

// TestReopenAfterCrashConformance is the crash-consistency conformance
// case, run against both backends: a backend killed mid-WriteChunk
// (via the faultstore crash point, with torn debris where the backend
// can materialize it) must, after reopen, either return the old chunk
// byte-identically or a typed ErrNotFound — never a torn read.
func TestReopenAfterCrashConformance(t *testing.T) {
	for name := range crashFixtures(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("overwrite", func(t *testing.T) {
				fx := crashFixtures(t)[name]
				b := fx.open(t)
				a := store.Addr{Disk: 1, Stripe: 3, Chunk: 0}
				old := testPayload(a, 300)
				if err := b.WriteChunk(a, old); err != nil {
					t.Fatal(err)
				}
				// Kill the next write mid-flight.
				faulty := Wrap(b, Plan{Seed: 11, CrashAfterOps: 1, TornWrites: true})
				if err := faulty.WriteChunk(a, testPayload(a, 300)); !errors.Is(err, ErrCrashed) {
					t.Fatalf("crashed write = %v, want ErrCrashed", err)
				}

				re := fx.reopen(t)
				dst := make([]byte, 1024)
				n, err := re.ReadChunk(a, dst)
				if err != nil {
					t.Fatalf("read after crashed overwrite = %v, want old chunk", err)
				}
				if !bytes.Equal(dst[:n], old) {
					t.Fatalf("torn read: got %d bytes differing from the old chunk", n)
				}
			})
			t.Run("first-write", func(t *testing.T) {
				fx := crashFixtures(t)[name]
				b := fx.open(t)
				a := store.Addr{Disk: 2, Stripe: 8, Chunk: 1}
				faulty := Wrap(b, Plan{Seed: 12, CrashAfterOps: 1, TornWrites: true})
				if err := faulty.WriteChunk(a, testPayload(a, 300)); !errors.Is(err, ErrCrashed) {
					t.Fatalf("crashed write = %v, want ErrCrashed", err)
				}

				re := fx.reopen(t)
				if _, err := re.ReadChunk(a, make([]byte, 1024)); !store.IsNotFound(err) {
					t.Fatalf("read after crashed first write = %v, want typed ErrNotFound", err)
				}
				addrs, err := re.List(a.Disk)
				if err != nil {
					t.Fatal(err)
				}
				for _, got := range addrs {
					if got == a {
						t.Fatalf("crashed write is visible in List")
					}
				}
			})
		})
	}
}

// TestCrashedDirWriteLeavesSweptDebris pins the dirstore-specific half:
// the crash materializes an orphan temp file (the realistic on-disk
// state of a killed writer) and reopening the store sweeps it.
func TestCrashedDirWriteLeavesSweptDebris(t *testing.T) {
	root := t.TempDir()
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	a := store.Addr{Disk: 0, Stripe: 0, Chunk: 0}
	faulty := Wrap(d, Plan{Seed: 5, CrashAfterOps: 1, TornWrites: true})
	if err := faulty.WriteChunk(a, testPayload(a, 128)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashed write = %v, want ErrCrashed", err)
	}
	if n := countTmpFiles(t, root); n != 1 {
		t.Fatalf("crash left %d orphan temp files, want 1", n)
	}
	if _, err := store.OpenDir(root); err != nil {
		t.Fatal(err)
	}
	if n := countTmpFiles(t, root); n != 0 {
		t.Fatalf("%d orphans survive reopen, want 0", n)
	}
}

func countTmpFiles(t *testing.T, root string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-chunk-") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
