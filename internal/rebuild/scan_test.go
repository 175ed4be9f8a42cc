package rebuild

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fbf/internal/codes"
	"fbf/internal/grid"
	"fbf/internal/store"
	"fbf/internal/trace"
)

// serialBackend embeds a backend and states no stripe depth, so a scan
// through it runs on the caller's goroutine, one disk after the other.
type serialBackend struct{ store.Backend }

// lanesBackend states a stripe depth of its own over a backend that is
// safe for concurrent readers.
type lanesBackend struct {
	store.Backend
	lanes int
}

func (l lanesBackend) StripeDepth() int { return l.lanes }

// TestScanStoreLanesMatchSerial pins that the damage report does not
// depend on how many disks are scanned at once: one lane (an embedding
// wrapper), the bare backend's GOMAXPROCS lanes, three lanes, and more
// lanes than disks all report the same damage, on Mem and on Dir, with
// and without scrub.
func TestScanStoreLanesMatchSerial(t *testing.T) {
	m := testManifest("tip", 7, 6, 64)
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (store.Backend, string)
	}{
		{"mem", func(t *testing.T) (store.Backend, string) { return store.NewMem(), "" }},
		{"dir", func(t *testing.T) (store.Backend, string) {
			root := t.TempDir()
			d, err := store.OpenDirWith(root, store.DirOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			return d, root
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, root := tc.open(t)
			if err := InitStore(b, m, 5); err != nil {
				t.Fatal(err)
			}
			// Missing chunks in two stripes, a chunk of the wrong size,
			// one wholly dead disk, and extras past the last stripe and
			// past the last row (which List puts between two stripes).
			loseCells(t, b, 1, []grid.Coord{{Row: 0, Col: 2}, {Row: 1, Col: 2}, {Row: 3, Col: 6}})
			loseCells(t, b, 4, []grid.Coord{{Row: 5, Col: 0}})
			killDisk(t, b, 5)
			for _, w := range []struct {
				a    store.Addr
				size int
			}{
				{store.Addr{Disk: 3, Stripe: 2, Chunk: 1}, m.ChunkSize / 2},
				{store.Addr{Disk: 0, Stripe: 99, Chunk: 0}, m.ChunkSize},
				{store.Addr{Disk: 6, Stripe: 0, Chunk: m.Rows}, m.ChunkSize},
			} {
				if err := b.WriteChunk(w.a, make([]byte, w.size)); err != nil {
					t.Fatal(err)
				}
			}
			wantCorrupt := 1
			if root != "" {
				// Header rot that Stat sees, and payload rot only a scrub
				// reads.
				path := filepath.Join(root, store.ChunkPath(store.Addr{Disk: 1, Stripe: 3, Chunk: 2}))
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[0] ^= 0xFF
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				rotPayloadByte(t, root, store.Addr{Disk: 4, Stripe: 0, Chunk: 4})
				wantCorrupt++
			}
			for _, scrub := range []bool{false, true} {
				serial, err := ScanStore(serialBackend{b}, m, scrub)
				if err != nil {
					t.Fatal(err)
				}
				corrupt := wantCorrupt
				if scrub && root != "" {
					corrupt++
				}
				if serial.MissingChunks != 4+m.Stripes*m.Rows || serial.CorruptChunks != corrupt ||
					!reflect.DeepEqual(serial.FailedDisks, []int{5}) || len(serial.ExtraChunks) != 2 {
					t.Fatalf("scrub %v: serial scan %d missing, %d corrupt, failed disks %v, extras %v; want %d, %d, [5] and two",
						scrub, serial.MissingChunks, serial.CorruptChunks, serial.FailedDisks, serial.ExtraChunks, 4+m.Stripes*m.Rows, corrupt)
				}
				for _, lanes := range []struct {
					name string
					b    store.Backend
				}{
					{fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)), b},
					{"3 lanes", lanesBackend{b, 3}},
					{"more lanes than disks", lanesBackend{b, m.Disks + 3}},
				} {
					got, err := ScanStore(lanes.b, m, scrub)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, serial) {
						t.Errorf("scrub %v, %s:\n got %+v\nwant %+v", scrub, lanes.name, got, serial)
					}
				}
			}
		})
	}
}

// listingBackend rewrites one disk's List result.
type listingBackend struct {
	store.Backend
	disk    int
	rewrite func([]store.Addr) []store.Addr
}

func (l listingBackend) List(disk int) ([]store.Addr, error) {
	addrs, err := l.Backend.List(disk)
	if err != nil || disk != l.disk {
		return addrs, err
	}
	return l.rewrite(addrs), nil
}

// TestScanStoreRejectsBrokenList pins that the scan checks List's
// contract before it relies on it: a disk whose List is out of order,
// repeats an address or names another disk's chunk fails the scan with
// the disk's number, instead of reporting present chunks as missing.
func TestScanStoreRejectsBrokenList(t *testing.T) {
	m := testManifest("tip", 5, 4, 32)
	b := initMem(t, m, 2)
	for _, tc := range []struct {
		name    string
		rewrite func([]store.Addr) []store.Addr
		want    string
	}{
		{"shuffled", func(a []store.Addr) []store.Addr {
			a[3], a[7] = a[7], a[3]
			return a
		}, "not in ascending"},
		{"repeated", func(a []store.Addr) []store.Addr {
			a[4] = a[3]
			return a
		}, "not in ascending"},
		{"another disk", func(a []store.Addr) []store.Addr {
			a[2].Disk = 0
			return a
		}, "another disk"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, lanes := range []int{1, 3} {
				_, err := ScanStore(lanesBackend{listingBackend{b, 2, tc.rewrite}, lanes}, m, false)
				if err == nil || !strings.Contains(err.Error(), "disk 2 lists") || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%d lanes: err = %v, want disk 2's %q", lanes, err, tc.want)
				}
			}
		})
	}
}

// failingLists fails List on disks 3 and 7 and records every call. When
// hold is set, disk 3's List returns only after disk 7's has failed, so
// a scan on lanes sees the higher disk fail first.
type failingLists struct {
	store.Backend
	hold bool

	mu      sync.Mutex
	calls   []string
	listed  map[int]bool
	failed7 chan struct{}
}

var errDisk3, errDisk7 = errors.New("disk 3 unreadable"), errors.New("disk 7 unreadable")

func (f *failingLists) record(call string) {
	f.mu.Lock()
	f.calls = append(f.calls, call)
	f.mu.Unlock()
}

func (f *failingLists) List(disk int) ([]store.Addr, error) {
	f.record(fmt.Sprintf("list %d", disk))
	f.mu.Lock()
	f.listed[disk] = true
	f.mu.Unlock()
	switch disk {
	case 3:
		if f.hold {
			select {
			case <-f.failed7:
			case <-time.After(10 * time.Second):
				return nil, errors.New("disk 7 was never listed while disk 3 was held")
			}
		}
		return nil, errDisk3
	case 7:
		close(f.failed7)
		return nil, errDisk7
	}
	return f.Backend.List(disk)
}

func (f *failingLists) Stat(a store.Addr) (store.Info, error) {
	f.record("stat " + a.String())
	return f.Backend.Stat(a)
}

// TestScanStoreErrorRule pins which error a failing scan returns. On one
// lane it is the first disk to fail, and nothing is called after it. On
// several it is the lowest failing disk's, even when a higher disk fails
// first, and no disk is handed out after a failure.
func TestScanStoreErrorRule(t *testing.T) {
	m := testManifest("tip", 13, 2, 16)
	b := initMem(t, m, 4)
	newFailing := func(hold bool) *failingLists {
		return &failingLists{Backend: b, hold: hold, listed: map[int]bool{}, failed7: make(chan struct{})}
	}

	t.Run("one lane", func(t *testing.T) {
		f := newFailing(false)
		if _, err := ScanStore(f, m, false); !errors.Is(err, errDisk3) {
			t.Fatalf("err = %v, want disk 3's", err)
		}
		if want := 3*(1+m.Stripes*m.Rows) + 1; len(f.calls) != want || f.calls[len(f.calls)-1] != "list 3" {
			t.Fatalf("%d calls ending in %q; want %d ending in the failing list 3", len(f.calls), f.calls[len(f.calls)-1], want)
		}
	})
	for _, lanes := range []int{2, 3, 16} {
		t.Run(fmt.Sprintf("%d lanes", lanes), func(t *testing.T) {
			for range 20 {
				f := newFailing(true)
				if _, err := ScanStore(lanesBackend{f, lanes}, m, false); !errors.Is(err, errDisk3) {
					t.Fatalf("err = %v, want disk 3's", err)
				}
				// With two lanes, one holds disk 3 while the other fails
				// disk 7: no lane is left to take a disk past it.
				for disk := 8; lanes == 2 && disk < m.Disks; disk++ {
					if f.listed[disk] {
						t.Fatalf("disk %d was handed out after disk 7 failed", disk)
					}
				}
			}
		})
	}
}

// BenchmarkScanStore times the damage scan on the benchmark's mem-partial
// array shape — TIP p=13, 256 stripes, one partial stripe error per
// stripe from trace.Generate — with 512-byte chunks, so it measures the
// scan's own work: List, the walk, and one Stat per present chunk.
func BenchmarkScanStore(b *testing.B) {
	m := testManifest("tip", 13, 256, 512)
	errs, err := trace.Generate(codes.MustNew(m.Code, m.P), trace.Config{Groups: m.Stripes, Stripes: m.Stripes, Seed: 1, Disk: -1, Dist: trace.SizeUniform})
	if err != nil {
		b.Fatal(err)
	}
	s := initMem(b, m, 1)
	for _, e := range errs {
		loseCells(b, s, e.Stripe, e.LostCells())
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ScanStore(s, m, false); err != nil {
			b.Fatal(err)
		}
	}
}
