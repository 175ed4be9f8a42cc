package rebuild

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fbf/internal/store"
)

// addrRecorder only embeds a backend, so it states no depth, and records
// the address of every WriteChunk. The write to failAt, if set, fails,
// and every write after it is recorded in afterError too.
type addrRecorder struct {
	store.Backend
	failAt     *store.Addr
	failed     bool
	writes     []store.Addr
	afterError []store.Addr
}

var errInjectedWrite = errors.New("injected write failure")

func (r *addrRecorder) WriteChunk(a store.Addr, data []byte) error {
	r.writes = append(r.writes, a)
	if r.failed {
		r.afterError = append(r.afterError, a)
	}
	if r.failAt != nil && a == *r.failAt {
		r.failed = true
		return errInjectedWrite
	}
	return r.Backend.WriteChunk(a, data)
}

// withProcs runs f with GOMAXPROCS set to procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestInitStoreLanesMatchSerial pins that materializing stripes on lanes
// changes neither the store InitStore leaves nor the calls its backend
// sees: at GOMAXPROCS 1 (the serial loop), 2 and 4 the Mem stores are
// DeepEqual and an embedding wrapper records the same WriteChunk address
// sequence — with more stripes than lanes and not a multiple of them,
// and with fewer stripes than lanes.
func TestInitStoreLanesMatchSerial(t *testing.T) {
	for _, stripes := range []int{13, 3} {
		m := testManifest("tip", 7, stripes, 512)
		var serial *store.Mem
		var serialWrites []store.Addr
		for _, procs := range []int{1, 2, 4} {
			bare, rec := store.NewMem(), &addrRecorder{Backend: store.NewMem()}
			withProcs(procs, func() {
				if err := InitStore(bare, m, 11); err != nil {
					t.Fatalf("%d stripes, GOMAXPROCS=%d: %v", stripes, procs, err)
				}
				if err := InitStore(rec, m, 11); err != nil {
					t.Fatalf("%d stripes, GOMAXPROCS=%d, recorded: %v", stripes, procs, err)
				}
			})
			if len(rec.writes) != m.Chunks() {
				t.Fatalf("%d stripes, GOMAXPROCS=%d: %d writes, want %d", stripes, procs, len(rec.writes), m.Chunks())
			}
			if procs == 1 {
				serial, serialWrites = bare, rec.writes
				continue
			}
			if !reflect.DeepEqual(bare, serial) {
				t.Errorf("%d stripes, GOMAXPROCS=%d: the store differs from the serial loop's", stripes, procs)
			}
			if !reflect.DeepEqual(rec.Backend, serial) {
				t.Errorf("%d stripes, GOMAXPROCS=%d: the recorded store differs from the serial loop's", stripes, procs)
			}
			if !reflect.DeepEqual(rec.writes, serialWrites) {
				t.Errorf("%d stripes, GOMAXPROCS=%d: WriteChunk sequence differs from the serial loop's", stripes, procs)
			}
		}
	}
}

// TestInitStoreWriteErrorStopsLanes pins InitStore's error rule: when a
// write in stripe 5 fails, InitStore returns that error with no backend
// call after it, every lane has finished materializing when it returns
// (no goroutine is left inside MaterializeStripeInto), and no goroutine
// outlives it. Large chunks keep a lane's stripe in the making long
// enough for a lane left running to show.
func TestInitStoreWriteErrorStopsLanes(t *testing.T) {
	m := testManifest("tip", 7, 12, 64<<10)
	for _, procs := range []int{1, 2, 4} {
		start := runtime.NumGoroutine()
		rec := &addrRecorder{Backend: store.NewMem(), failAt: &store.Addr{Disk: 2, Stripe: 5, Chunk: 0}}
		var err error
		var stacks string
		withProcs(procs, func() {
			err = InitStore(rec, m, 3)
			stacks = allStacks()
		})
		if !errors.Is(err, errInjectedWrite) {
			t.Fatalf("GOMAXPROCS=%d: InitStore returned %v, want the injected write error", procs, err)
		}
		if len(rec.afterError) > 0 {
			t.Errorf("GOMAXPROCS=%d: writes after the failed write: %v", procs, rec.afterError)
		}
		if strings.Contains(stacks, "MaterializeStripeInto") {
			t.Errorf("GOMAXPROCS=%d: a lane is still materializing after InitStore returned:\n%s", procs, stacks)
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > start {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS=%d: %d goroutines after InitStore, %d before", procs, runtime.NumGoroutine(), start)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// allStacks returns every goroutine's stack.
func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// BenchmarkInitStore times InitStore on the benchmark's mem-partial
// array shape, TIP p=13, with 64 stripes of 32 KiB chunks into a Mem.
func BenchmarkInitStore(b *testing.B) {
	m := testManifest("tip", 13, 64, 32<<10)
	b.ReportAllocs()
	for b.Loop() {
		if err := InitStore(store.NewMem(), m, 1); err != nil {
			b.Fatal(err)
		}
	}
}
