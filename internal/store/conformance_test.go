package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// backends is the conformance registry: every Backend implementation
// registers a fresh-store constructor here and the shared contract
// table below runs against each, mirroring the cache Policy contract
// test. A new backend passes the whole suite or it is not a Backend.
var backends = map[string]func(t *testing.T) Backend{
	"dirstore": func(t *testing.T) Backend {
		d, err := OpenDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	},
	// Without the fsyncs overlapped writes spend no time waiting, so they
	// interleave differently from the durable store's.
	"dirstore-nosync": func(t *testing.T) Backend {
		d, err := OpenDirWith(t.TempDir(), DirOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return d
	},
	"memstore": func(t *testing.T) Backend { return NewMem() },
	// Instrument is a transparent wrapper: it must pass the full
	// contract over any backend, alone and stacked on a Throttle.
	"instrumented": func(t *testing.T) Backend { return Instrument(NewMem()) },
	"throttled-instrumented": func(t *testing.T) Backend {
		th, err := NewThrottle(NewMem(), 1<<30) // ample: the suite must not stall
		if err != nil {
			t.Fatal(err)
		}
		return Instrument(th)
	},
}

// payload derives a deterministic test payload for an address.
func payload(a Addr, size int) []byte {
	rng := rand.New(rand.NewSource(int64(a.Disk)<<40 ^ int64(a.Stripe)<<16 ^ int64(a.Chunk) + 1))
	b := make([]byte, size)
	rng.Read(b)
	return b
}

func TestConformance(t *testing.T) {
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			for _, c := range contractCases() {
				t.Run(c.name, func(t *testing.T) {
					c.run(t, open(t))
				})
			}
		})
	}
}

type contractCase struct {
	name string
	run  func(t *testing.T, b Backend)
}

func contractCases() []contractCase {
	return []contractCase{
		{"read-after-write", testReadAfterWrite},
		{"overwrite", testOverwrite},
		{"missing-chunk-errors", testMissingChunkErrors},
		{"delete", testDelete},
		{"list-ordering", testListOrdering},
		{"list-empty-disk", testListEmptyDisk},
		{"stat", testStat},
		{"short-destination", testShortDestination},
		{"concurrent-reads", testConcurrentReads},
		{"concurrent-writes", testConcurrentWrites},
		{"reads-racing-overwrites", testReadsRacingOverwrites},
	}
}

func testReadAfterWrite(t *testing.T, b Backend) {
	a := Addr{Disk: 2, Stripe: 11, Chunk: 3}
	want := payload(a, 513) // odd size: exercises any padding assumptions
	if err := b.WriteChunk(a, want); err != nil {
		t.Fatalf("WriteChunk: %v", err)
	}
	dst := make([]byte, 1024)
	n, err := b.ReadChunk(a, dst)
	if err != nil {
		t.Fatalf("ReadChunk: %v", err)
	}
	if n != len(want) || !bytes.Equal(dst[:n], want) {
		t.Fatalf("read back %d bytes, want %d identical bytes", n, len(want))
	}
}

func testOverwrite(t *testing.T, b Backend) {
	a := Addr{Disk: 0, Stripe: 0, Chunk: 0}
	first := payload(a, 256)
	second := payload(Addr{Disk: 9, Stripe: 9, Chunk: 9}, 128) // different bytes AND size
	for _, p := range [][]byte{first, second} {
		if err := b.WriteChunk(a, p); err != nil {
			t.Fatalf("WriteChunk: %v", err)
		}
	}
	dst := make([]byte, 512)
	n, err := b.ReadChunk(a, dst)
	if err != nil {
		t.Fatalf("ReadChunk after overwrite: %v", err)
	}
	if n != len(second) || !bytes.Equal(dst[:n], second) {
		t.Fatalf("overwrite did not replace contents: got %d bytes", n)
	}
	info, err := b.Stat(a)
	if err != nil || info.Size != len(second) {
		t.Fatalf("Stat after overwrite = %+v, %v; want size %d", info, err, len(second))
	}
}

func testMissingChunkErrors(t *testing.T, b Backend) {
	a := Addr{Disk: 1, Stripe: 2, Chunk: 3}
	dst := make([]byte, 64)
	if _, err := b.ReadChunk(a, dst); !IsNotFound(err) {
		t.Errorf("ReadChunk(missing) = %v, want ErrNotFound", err)
	} else if !errors.Is(err, ErrNotFound) {
		t.Errorf("error %v does not match errors.Is(ErrNotFound)", err)
	}
	if _, err := b.Stat(a); !IsNotFound(err) {
		t.Errorf("Stat(missing) = %v, want ErrNotFound", err)
	}
	if err := b.Delete(a); !IsNotFound(err) {
		t.Errorf("Delete(missing) = %v, want ErrNotFound", err)
	}
	// The taxonomy is exclusive: a missing chunk is not corrupt.
	if _, err := b.ReadChunk(a, dst); IsCorrupt(err) {
		t.Errorf("ReadChunk(missing) matches ErrCorrupt: %v", err)
	}
	// Errors name the address for operator diagnostics.
	if _, err := b.ReadChunk(a, dst); err == nil || !errors.As(err, new(*NotFoundError)) {
		t.Errorf("ReadChunk(missing) = %T, want *NotFoundError", err)
	}
}

func testDelete(t *testing.T, b Backend) {
	a := Addr{Disk: 4, Stripe: 7, Chunk: 1}
	if err := b.WriteChunk(a, payload(a, 64)); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(a); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := b.ReadChunk(a, make([]byte, 64)); !IsNotFound(err) {
		t.Errorf("ReadChunk after Delete = %v, want ErrNotFound", err)
	}
	addrs, err := b.List(a.Disk)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range addrs {
		if got == a {
			t.Errorf("List still contains deleted %v", a)
		}
	}
}

func testListOrdering(t *testing.T, b Backend) {
	// Write shuffled addresses on two disks; List must return each
	// disk's addresses sorted by (Stripe, Chunk) and nothing from the
	// other disk.
	var want []Addr
	for stripe := 0; stripe < 4; stripe++ {
		for chunkRow := 0; chunkRow < 3; chunkRow++ {
			want = append(want, Addr{Disk: 5, Stripe: stripe, Chunk: chunkRow})
		}
	}
	shuffled := append([]Addr(nil), want...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, a := range shuffled {
		if err := b.WriteChunk(a, payload(a, 32)); err != nil {
			t.Fatal(err)
		}
	}
	other := Addr{Disk: 6, Stripe: 0, Chunk: 0}
	if err := b.WriteChunk(other, payload(other, 32)); err != nil {
		t.Fatal(err)
	}

	got, err := b.List(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("List(5) returned %d addrs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("List(5)[%d] = %v, want %v (ordering contract)", i, got[i], want[i])
		}
	}
}

func testListEmptyDisk(t *testing.T, b Backend) {
	got, err := b.List(37)
	if err != nil {
		t.Fatalf("List(empty disk) = %v, want empty, nil", err)
	}
	if len(got) != 0 {
		t.Fatalf("List(empty disk) returned %d addrs", len(got))
	}
}

func testStat(t *testing.T, b Backend) {
	a := Addr{Disk: 3, Stripe: 5, Chunk: 2}
	want := payload(a, 777)
	if err := b.WriteChunk(a, want); err != nil {
		t.Fatal(err)
	}
	info, err := b.Stat(a)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if info.Addr != a || info.Size != len(want) {
		t.Fatalf("Stat = %+v, want addr %v size %d", info, a, len(want))
	}
}

func testShortDestination(t *testing.T, b Backend) {
	a := Addr{Disk: 0, Stripe: 1, Chunk: 0}
	if err := b.WriteChunk(a, payload(a, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadChunk(a, make([]byte, 64)); err == nil {
		t.Error("ReadChunk into a too-short buffer succeeded")
	} else if IsNotFound(err) || IsCorrupt(err) {
		t.Errorf("short-buffer error misclassified in the taxonomy: %v", err)
	}
}

func testConcurrentReads(t *testing.T, b Backend) {
	// Shared-address and distinct-address readers race; run under
	// -race this pins the "safe for concurrent readers" contract.
	const disks, stripes = 3, 4
	for d := 0; d < disks; d++ {
		for s := 0; s < stripes; s++ {
			a := Addr{Disk: d, Stripe: s, Chunk: 0}
			if err := b.WriteChunk(a, payload(a, 256)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, 256)
			for i := 0; i < 50; i++ {
				a := Addr{Disk: (g + i) % disks, Stripe: i % stripes, Chunk: 0}
				n, err := b.ReadChunk(a, dst)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if !bytes.Equal(dst[:n], payload(a, 256)) {
					errs <- fmt.Errorf("reader %d: wrong bytes at %v", g, a)
					return
				}
				if _, err := b.List(a.Disk); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func testConcurrentWrites(t *testing.T, b Backend) {
	// The sentence the rebuild's write-back leans on: "concurrent writers
	// to distinct addresses must not interfere". Sixteen writers fill
	// three disks, each its own addresses, while one more overwrites a
	// single address again and again; afterwards every chunk reads back
	// whole and every disk lists in order.
	const writers, perWriter, disks, size = 16, 6, 3, 256
	hot := Addr{Disk: 1, Stripe: 1000, Chunk: 0}
	final := payload(Addr{Disk: 9, Stripe: 9, Chunk: 9}, size)
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				a := Addr{Disk: (g + i) % disks, Stripe: g, Chunk: i}
				if err := b.WriteChunk(a, payload(a, size)); err != nil {
					errs <- fmt.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2*perWriter; i++ {
			if err := b.WriteChunk(hot, payload(Addr{Stripe: i}, size)); err != nil {
				errs <- fmt.Errorf("overwriter: %v", err)
				return
			}
		}
		if err := b.WriteChunk(hot, final); err != nil {
			errs <- fmt.Errorf("overwriter: %v", err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	dst := make([]byte, size)
	check := func(a Addr, want []byte) {
		t.Helper()
		n, err := b.ReadChunk(a, dst)
		if err != nil {
			t.Fatalf("ReadChunk(%v): %v", a, err)
		}
		if !bytes.Equal(dst[:n], want) {
			t.Fatalf("%v does not read back the bytes its writer stored", a)
		}
	}
	check(hot, final)
	listed := 0
	for d := 0; d < disks; d++ {
		addrs, err := b.List(d)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range addrs {
			if a.Disk != d || (i > 0 && !addrs[i-1].Less(a)) {
				t.Fatalf("List(%d)[%d] = %v after %v: out of order", d, i, a, addrs[max(i-1, 0)])
			}
			if a != hot {
				check(a, payload(a, size))
			}
		}
		listed += len(addrs)
	}
	if want := writers*perWriter + 1; listed != want {
		t.Fatalf("%d chunks listed, want the %d written", listed, want)
	}
}

func testReadsRacingOverwrites(t *testing.T, b Backend) {
	// A rebuild reads the sources of later stripes while it writes an
	// earlier one back, and a daemon may rewrite a chunk someone reads.
	// Readers of one address that a writer keeps overwriting, between two
	// payloads of the same size, must each time get one payload whole:
	// never a blend, never a short read. Under -race this is also the
	// check that a read and a write share no unguarded state.
	const readers, reads, writes, size = 4, 200, 200, 4096
	a := Addr{Disk: 0, Stripe: 7, Chunk: 1}
	old, cur := payload(a, size), payload(Addr{Disk: 5, Stripe: 5, Chunk: 5}, size)
	if err := b.WriteChunk(a, old); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			p := cur
			if i%2 == 1 {
				p = old
			}
			if err := b.WriteChunk(a, p); err != nil {
				errs <- fmt.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, size)
			for i := 0; i < reads; i++ {
				n, err := b.ReadChunk(a, dst)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if got := dst[:n]; !bytes.Equal(got, old) && !bytes.Equal(got, cur) {
					errs <- fmt.Errorf("reader %d: read %d bytes that are neither the old payload nor the new one", g, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWriteDepth pins who states a write depth: Dir its constant, seen
// through any stack of the forwarding wrappers; Mem none; and a struct
// that merely embeds Backend none either, whatever it wraps — such a
// wrapper never promised to be safe for overlapped calls, so it gets
// serial ones.
func TestWriteDepth(t *testing.T) {
	dir, err := OpenDirWith(t.TempDir(), DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	throttle := func(b Backend) Backend {
		th, err := NewThrottle(b, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	type embedding struct{ Backend }
	for _, tc := range []struct {
		name string
		b    Backend
		want int
	}{
		{"dir", dir, dirWriteDepth},
		{"mem", NewMem(), 1},
		{"throttle(dir)", throttle(dir), dirWriteDepth},
		{"instrument(dir)", Instrument(dir), dirWriteDepth},
		{"instrument(throttle(dir))", Instrument(throttle(dir)), dirWriteDepth},
		{"throttle(instrument(dir))", throttle(Instrument(dir)), dirWriteDepth},
		{"instrument(throttle(mem))", Instrument(throttle(NewMem())), 1},
		{"embedding(dir)", embedding{dir}, 1},
		{"instrument(embedding(dir))", Instrument(embedding{dir}), 1},
	} {
		if got := WriteDepth(tc.b); got != tc.want {
			t.Errorf("WriteDepth(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
	if dirWriteDepth < 2 {
		t.Fatalf("dirWriteDepth = %d: the directory store would be written to serially", dirWriteDepth)
	}
}

// TestStripeDepth pins who states a stripe depth: Dir and Mem one stripe
// per processor Go runs on, seen through any stack of the forwarding
// wrappers, and a struct that merely embeds Backend none, whatever it
// wraps.
func TestStripeDepth(t *testing.T) {
	dir, err := OpenDirWith(t.TempDir(), DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	th, err := NewThrottle(NewMem(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	type embedding struct{ Backend }
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name string
		b    Backend
		want int
	}{
		{"dir", dir, procs},
		{"mem", NewMem(), procs},
		{"instrument(dir)", Instrument(dir), procs},
		{"instrument(throttle(mem))", Instrument(th), procs},
		{"embedding(mem)", embedding{NewMem()}, 1},
		{"instrument(embedding(dir))", Instrument(embedding{dir}), 1},
	} {
		if got := StripeDepth(tc.b); got != tc.want {
			t.Errorf("StripeDepth(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}
