package rebuild

// writeback_test.go pins the write-back dispatcher (writeBack) through
// RunService, in both evaluation orders: how many writes it keeps in
// flight, what it does when one of them fails or a stop arrives in
// mid-group, how many written chunks a kill can leave without a commit
// record, and that a backend stating no depth sees the serial order.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/store"
)

var errWriteInjected = errors.New("injected write failure")

// depthBackend states a write depth and watches what the service does
// with it. Its gate makes the overlap exact instead of whatever the
// scheduler produced: a write returns only while as many writes are in
// flight as a dispatcher of that depth can keep there — depth, or all
// that is left of the stripe's group — so a dispatcher that kept fewer
// would hang the test and one that kept more is recorded as a fault.
// Writes leave the gate one at a time, and the write picked to fail or
// to close stop leaves it ahead of any other in flight with it. Once
// failWrite has fired, every write that starts after it fails at once.
type depthBackend struct {
	store.Backend
	depth int
	group int // writes the write-back of one stripe starts

	failWrite int    // this write, counted from 1 as they start, fails; 0 none
	stopWrite int    // this write closes stop before it returns; 0 none
	journal   string // the run's journal, read when failWrite fires
	stop      chan struct{}

	mu       sync.Mutex
	gate     *sync.Cond
	started  int
	inFlight int
	peak     int
	stripe   int         // of the writes in flight
	returned map[int]int // writes returned, by stripe
	picked   bool        // failWrite or stopWrite is in flight and has not fired
	fired    bool        // it has: the group is refilled no more, nothing waits
	atFire   int         // started when it fired
	wrote    []store.Addr
	faults   []string

	// When failWrite fires: the writes that returned nil or are in flight
	// — every one of them may be on the medium if the process is killed
	// right then — and the commit records on file.
	landed, journaled int
}

func newDepthBackend(b store.Backend, depth, group int) *depthBackend {
	d := &depthBackend{Backend: b, depth: depth, group: group, stop: make(chan struct{}), returned: map[int]int{}}
	d.gate = sync.NewCond(&d.mu)
	return d
}

func (d *depthBackend) WriteDepth() int { return d.depth }

func (d *depthBackend) faultf(format string, args ...any) {
	d.faults = append(d.faults, fmt.Sprintf(format, args...))
}

func (d *depthBackend) ReadChunk(a store.Addr, dst []byte) (int, error) {
	d.mu.Lock()
	if d.inFlight > 0 {
		d.faultf("read of %v with %d writes in flight", a, d.inFlight)
	}
	d.mu.Unlock()
	return d.Backend.ReadChunk(a, dst)
}

func (d *depthBackend) WriteChunk(a store.Addr, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.started++
	n := d.started
	if d.inFlight > 0 && d.stripe != a.Stripe {
		d.faultf("writes of stripes %d and %d in flight together", d.stripe, a.Stripe)
	}
	d.stripe = a.Stripe
	d.inFlight++
	d.peak = max(d.peak, d.inFlight)
	if d.inFlight > d.depth {
		d.faultf("%d writes in flight at depth %d", d.inFlight, d.depth)
	}
	if d.fired && d.stopWrite > 0 {
		d.faultf("write %d (%v) started after stop was closed", n, a)
	}
	pick := n == d.failWrite || n == d.stopWrite
	d.picked = d.picked || pick
	d.gate.Broadcast()
	for !d.fired && (d.inFlight < min(d.depth, d.group-d.returned[a.Stripe]) || (d.picked && !pick)) {
		d.gate.Wait()
	}
	var err error
	switch {
	case d.failWrite > 0 && d.fired && n > d.atFire:
		err = fmt.Errorf("write %v, started after write %d failed: %w", a, d.failWrite, errWriteInjected)
	case n == d.failWrite:
		err = fmt.Errorf("write %v: %w", a, errWriteInjected)
		d.landed = len(d.wrote) + d.inFlight
		if d.journal != "" {
			records, err := journalRecords(d.journal)
			if err != nil {
				d.faultf("reading the journal: %v", err)
			}
			d.journaled = bytes.Count(records, []byte{recCommit})
		}
	case n == d.stopWrite:
		close(d.stop)
	}
	if pick {
		d.picked, d.fired, d.atFire = false, true, d.started
	}
	if err == nil {
		if err = d.Backend.WriteChunk(a, data); err == nil {
			d.wrote = append(d.wrote, a)
		}
	}
	d.inFlight--
	d.returned[a.Stripe]++
	d.gate.Broadcast()
	return err
}

// replayJournal reads the journal at path as a resuming run would.
func replayJournal(t *testing.T, path string) *JournalState {
	t.Helper()
	j, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// inFlightCommits counts the committed cells of stripes with no stripe-done
// record after their last commit: the cells a resume puts back to be
// repaired again.
func inFlightCommits(st *JournalState) int {
	n := 0
	for _, stripe := range st.InFlight() {
		for a := range st.Commits {
			if a.Stripe == stripe {
				n++
			}
		}
	}
	return n
}

// writeFixture is damage whose every stripe is written back as one group
// of perStripe writes.
type writeFixture struct {
	prefix    string // of the subtest names
	m         store.ArrayManifest
	perStripe int
	decoded   bool // the stripes take the read-once pass, not the byte cache
	damage    func(*testing.T, *store.Mem)
}

// writeFixtures returns the write-back fixtures over the given number of
// stripes, one per evaluation order: three whole STAR p=5 disks killed
// (every stripe loses 3·Rows cells to the read-once pass), and a partial
// stripe error of five chunks of one disk in every TIP p=7 stripe (chain
// by chain through the byte cache, its subtests prefixed "partial-").
func writeFixtures(stripes int) []writeFixture {
	kill := testManifest("star", 5, stripes, 64)
	partial := testManifest("tip", 7, stripes, 64)
	return []writeFixture{
		{"", kill, 3 * kill.Rows, true, func(t *testing.T, b *store.Mem) {
			for _, disk := range []int{0, 2, 4} {
				killDisk(t, b, disk)
			}
		}},
		{"partial-", partial, 5, false, func(t *testing.T, b *store.Mem) { losePartialStripes(t, b, partial, 5) }},
	}
}

// setUp materializes the fixture on a memstore and damages it.
func (f writeFixture) setUp(t *testing.T) *store.Mem {
	t.Helper()
	b := initMem(t, f.m, resumeSeed)
	f.damage(t, b)
	return b
}

// TestWriteBackKeepsDepthInFlight pins the overlap itself: at every
// stated depth the pipeline is exactly full (never more than depth, more
// than one on every stripe), no source is read while a write is in
// flight, no two stripes' writes are in flight together, and the result
// is the serial run's to the last counter.
func TestWriteBackKeepsDepthInFlight(t *testing.T) {
	for _, f := range writeFixtures(3) {
		var serial *ServiceResult
		for _, depth := range []int{1, 2, 8, 12, 16} {
			t.Run(fmt.Sprint(f.prefix, "depth-", depth), func(t *testing.T) {
				mem := f.setUp(t)
				d := newDepthBackend(mem, depth, f.perStripe)
				res, err := RunService(ServiceConfig{Backend: d, Manifest: f.m, JournalPath: filepath.Join(t.TempDir(), "rebuild.journal")})
				if err != nil {
					t.Fatal(err)
				}
				for _, fault := range d.faults {
					t.Error(fault)
				}
				if want := min(depth, f.perStripe); d.peak != want {
					t.Fatalf("at most %d writes were in flight, want %d", d.peak, want)
				}
				want := f.m.Stripes * f.perStripe
				if len(d.wrote) != want || res.ChunksRebuilt != want || (res.ChunksDecoded == want) != f.decoded {
					t.Fatalf("%d writes, %d chunks rebuilt, %d decoded, want %d rebuilt (decoded: %v)", len(d.wrote), res.ChunksRebuilt, res.ChunksDecoded, want, f.decoded)
				}
				checkAgainstGroundTruth(t, mem, f.m, resumeSeed)
				if serial == nil {
					serial = res
				} else if !reflect.DeepEqual(res, serial) {
					t.Fatalf("depth %d: %+v\nserial: %+v", depth, res, serial)
				}
			})
		}
	}
}

// TestWriteBackFailureMidGroup fails each write of a stripe's group in
// turn while the pipeline is full: the run returns that error, every
// write that returned nil has its commit record (and nothing else has),
// the group is not refilled once the failure is known, and a rerun on
// the same journal replays exactly those records and converges, repairing
// the fresh scan's damage plus the committed cells of the failed stripe.
//
// The failure reaches the dispatcher through the same queue as the writes
// in flight with it, and the failing write's goroutine queues its error
// only after WriteChunk has returned — after the gate has let the others
// go. Each of them collected first may start one more write. Were such a
// refill let through too, it could finish and be collected ahead of the
// failure as well, start another, and so on to the end of the group for
// as long as the failing goroutine waits to be scheduled. So a write that
// starts after the failure fails at once: whichever failure the
// dispatcher collects first, it starts nothing after it, and the refills
// end with their first generation.
//
// The failing write stands in for a hard kill as well (§13's bound): at
// that moment every write that returned nil or is in flight may be on the
// medium, and the ones without a commit record on file are at most depth.
func TestWriteBackFailureMidGroup(t *testing.T) {
	const depth = 4
	for _, f := range writeFixtures(2) {
		for k := 1; k <= f.m.Stripes*f.perStripe; k++ {
			t.Run(fmt.Sprint(f.prefix, "write-", k), func(t *testing.T) {
				journal := filepath.Join(t.TempDir(), "rebuild.journal")
				mem := f.setUp(t)
				d := newDepthBackend(mem, depth, f.perStripe)
				d.failWrite, d.journal = k, journal
				_, err := RunService(ServiceConfig{Backend: d, Manifest: f.m, JournalPath: journal})
				if !errors.Is(err, errWriteInjected) {
					t.Fatalf("run returned %v, want the injected write failure", err)
				}
				for _, fault := range d.faults {
					t.Error(fault)
				}
				if d.started > d.atFire+depth-1 {
					t.Fatalf("%d writes started, %d of them before the failure: the group was refilled after it", d.started, d.atFire)
				}
				if got, want := len(d.wrote), d.atFire-1; got != want {
					t.Fatalf("%d writes returned nil, want all %d that started before the failure but the failed one", got, want)
				}
				if unjournaled := d.landed - d.journaled; unjournaled < 1 || unjournaled > depth {
					t.Fatalf("a kill at the failing write leaves %d written chunks without a commit record (%d landed, %d records), want 1 to %d", unjournaled, d.landed, d.journaled, depth)
				}
				st := replayJournal(t, journal)
				commits := st.Commits
				if len(commits) != len(d.wrote) {
					t.Fatalf("%d commit records for %d writes that returned nil", len(commits), len(d.wrote))
				}
				for _, a := range d.wrote {
					if _, ok := commits[a]; !ok {
						t.Fatalf("%v was written and has no commit record", a)
					}
				}

				res, err := RunService(ServiceConfig{Backend: mem, Manifest: f.m, JournalPath: journal})
				if err != nil {
					t.Fatal(err)
				}
				// Commits of a finished stripe are replayed too; all of them
				// are on record, none was made up.
				if res.ResumedCommits != len(commits) || res.DataLoss || res.Interrupted {
					t.Fatalf("rerun replayed %d commits (want %d), dataloss=%v interrupted=%v", res.ResumedCommits, len(commits), res.DataLoss, res.Interrupted)
				}
				// The rerun rebuilds the fresh scan's damage plus the commits of
				// the stripe the failure left unfinished, which it repairs again.
				if want := f.m.Stripes*f.perStripe - len(commits) + inFlightCommits(st); res.ChunksRebuilt != want {
					t.Fatalf("rerun rebuilt %d chunks, want the %d the failed run left plus the %d it committed in its unfinished stripe", res.ChunksRebuilt, f.m.Stripes*f.perStripe-len(commits), inFlightCommits(st))
				}
				checkAgainstGroundTruth(t, mem, f.m, resumeSeed)
				if _, err := os.Stat(journal); !os.IsNotExist(err) {
					t.Fatalf("journal survives the completed rerun: %v", err)
				}
			})
		}
	}
}

// TestWriteBackStopMidGroup closes Stop from inside the k-th write while
// the pipeline is full: the writes in flight finish and are booked, none
// starts afterwards, the stripe is not marked done, and the resumed run
// replays exactly the booked writes and repairs the fresh scan's damage
// plus the booked writes of the unfinished stripe.
func TestWriteBackStopMidGroup(t *testing.T) {
	const depth = 4
	for _, f := range writeFixtures(2) {
		seen := map[int]bool{}
		for _, k := range []int{1, 2, depth, depth + 1, f.perStripe - 1, f.perStripe + 2} {
			if seen[k] {
				continue
			}
			seen[k] = true
			t.Run(fmt.Sprint(f.prefix, "write-", k), func(t *testing.T) {
				journal := filepath.Join(t.TempDir(), "rebuild.journal")
				mem := f.setUp(t)
				d := newDepthBackend(mem, depth, f.perStripe)
				d.stopWrite = k
				res, err := RunService(ServiceConfig{Backend: d, Manifest: f.m, JournalPath: journal, Stop: d.stop})
				if err != nil {
					t.Fatalf("graceful stop must not be an error: %v", err)
				}
				for _, fault := range d.faults {
					t.Error(fault)
				}
				// Stop closed with the pipeline full: in the k-th write's stripe
				// that is the first fill (depth writes) or, later in the group,
				// the refill the k-th write itself was. A stop that lands once
				// the whole group has started leaves that stripe done.
				done, kIn := (k-1)/f.perStripe, (k-1)%f.perStripe+1
				inGroup := min(max(kIn, depth), f.perStripe)
				if want := done*f.perStripe + inGroup; d.started != want || len(d.wrote) != want {
					t.Fatalf("%d writes started, %d returned nil, want %d of each: those in flight at the stop finish, none starts", d.started, len(d.wrote), want)
				}
				if inGroup == f.perStripe {
					done++
				}
				st := replayJournal(t, journal)
				commits := st.Commits
				if !res.Interrupted || res.ChunksRebuilt != len(d.wrote) || len(commits) != len(d.wrote) {
					t.Fatalf("interrupted=%v, %d chunks rebuilt, %d commit records, %d writes returned nil", res.Interrupted, res.ChunksRebuilt, len(commits), len(d.wrote))
				}
				if res.StripesRepaired != done {
					t.Fatalf("%d stripes marked repaired, want %d", res.StripesRepaired, done)
				}

				res2, err := RunService(ServiceConfig{Backend: mem, Manifest: f.m, JournalPath: journal})
				if err != nil {
					t.Fatal(err)
				}
				if res2.Interrupted || res2.DataLoss || res2.ResumedCommits != len(commits) || res2.ChunksRebuilt != f.m.Stripes*f.perStripe-len(commits)+inFlightCommits(st) {
					t.Fatalf("resume: %+v after %d commits", res2, len(commits))
				}
				checkAgainstGroundTruth(t, mem, f.m, resumeSeed)
			})
		}
	}
}

// TestWriteBackDepthOneIsTheSerialOrder runs the same damage through the
// durable directory store, which states a depth, and through the same
// kind of store behind a wrapper that merely embeds the interface, which
// states none and is written to one chunk at a time: the same result to
// the last counter and journal byte, and the same store bytes.
func TestWriteBackDepthOneIsTheSerialOrder(t *testing.T) {
	m := testManifest("star", 5, 3, 64)
	run := func(wrap func(store.Backend) store.Backend) (*ServiceResult, string) {
		root := t.TempDir()
		dir, err := store.OpenDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := InitStore(wrap(dir), m, resumeSeed); err != nil {
			t.Fatal(err)
		}
		for _, disk := range []int{0, 2, 4} {
			if err := os.RemoveAll(filepath.Join(root, store.DiskDirName(disk))); err != nil {
				t.Fatal(err)
			}
		}
		res, err := RunService(ServiceConfig{Backend: wrap(dir), Manifest: m, JournalPath: filepath.Join(root, "rebuild.journal")})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstGroundTruth(t, dir, m, resumeSeed)
		return res, root
	}
	type embedding struct{ store.Backend }
	overlapped, a := run(func(b store.Backend) store.Backend { return b })
	serial, b := run(func(b store.Backend) store.Backend { return embedding{b} })
	if store.WriteDepth(embedding{}) != 1 {
		t.Fatal("a wrapper that embeds store.Backend states a write depth")
	}
	if !reflect.DeepEqual(overlapped, serial) {
		t.Fatalf("overlapped: %+v\nserial:     %+v", overlapped, serial)
	}
	files := 0
	err := filepath.WalkDir(a, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(a, path)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s differs between the two stores", rel)
		}
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files != m.Chunks() {
		t.Fatalf("%d files compared, want the array's %d chunks", files, m.Chunks())
	}
}

// discard accepts every write and keeps nothing; it states no depth.
type discard struct{ store.Backend }

func (discard) WriteChunk(store.Addr, []byte) error { return nil }

// TestWriteBackDepthOneAllocatesNothing pins what depth 1 costs a
// stripe: no goroutine, no channel, no closure on the heap.
func TestWriteBackDepthOneAllocatesNothing(t *testing.T) {
	chunks := make([]chunk.Chunk, 12)
	for i := range chunks {
		chunks[i] = chunk.New(64)
	}
	var b store.Backend = discard{}
	booked := 0
	allocs := testing.AllocsPerRun(100, func() {
		addr := func(i int) store.Addr { return store.Addr{Stripe: booked, Chunk: i} }
		if stopped, err := writeBack(b, nil, chunks, addr, func(int) error { booked++; return nil }); stopped || err != nil {
			t.Fatalf("stopped=%v err=%v", stopped, err)
		}
	})
	if allocs != 0 || booked != 101*len(chunks) {
		t.Fatalf("%v allocations per stripe, %d writes booked", allocs, booked)
	}
}
