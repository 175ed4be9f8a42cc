package rebuild

// writeback_test.go pins the write-back dispatcher (writeBack) through
// RunService, at every stated stripe depth: how many writes it keeps in
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
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fbf/internal/chunk"
	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/store"
	"fbf/internal/telemetry"
)

var errWriteInjected = errors.New("injected write failure")

// depthBackend states a write depth and a stripe depth and watches what
// the service does with them. Its gate makes the overlap exact instead of
// whatever the scheduler produced: a write returns only while as many
// writes are in flight as a dispatcher of that depth can keep there —
// depth, or all that is left of the stripe's group — so a dispatcher that
// kept fewer would hang the test and one that kept more is recorded as a
// fault. Writes leave the gate one at a time, and the write picked to
// fail or to close stop leaves it ahead of any other in flight with it.
// Once failWrite has fired, every write that starts after it fails at
// once.
//
// A stripe is in evaluation from its first read to its first write. A
// read of a stripe whose write-back has started is a fault, and so are
// writes of two stripes in flight together; at a stated stripe depth of
// 1, so is any read while a write is in flight. With overlap set, the run's
// first read is held until a read of another stripe arrives (or five
// seconds have passed), so a service that keeps two stripes in evaluation
// is seen to, whatever the scheduler does.
type depthBackend struct {
	store.Backend
	depth   int
	lanes   int           // the stripe depth it states; 0 states 1
	group   func(int) int // writes the write-back of a stripe starts
	overlap bool          // hold the first read for a second stripe's
	second  chan struct{} // closed when that read arrives

	failWrite int    // this write, counted from 1 as they start, fails; 0 none
	stopWrite int    // this write closes stop before it returns; 0 none
	stopRead  int    // this payload read of stripe 0, counted from 1, closes stop once lanes stripes have been read from; 0 none
	journal   string // the run's journal, read when failWrite fires
	stop      chan struct{}

	mu         sync.Mutex
	gate       *sync.Cond
	started    int
	inFlight   int
	peak       int
	stripe     int         // of the writes in flight
	returned   map[int]int // writes returned, by stripe
	picked     bool        // failWrite or stopWrite is in flight and has not fired
	fired      bool        // it has: the group is refilled no more, nothing waits
	atFire     int         // started when it fired
	wrote      []store.Addr
	faults     []string
	held       int          // the stripe whose read the overlap gate holds; -1 none yet
	reads      map[int]int  // payload reads, by stripe
	writing    map[int]bool // stripes whose write-back has started
	evaluating map[int]bool // stripes read from whose write-back has not started
	evalPeak   int          // most stripes in evaluation at once
	over       bool         // the run has returned: a read now is a lane that outlived it

	// When failWrite fires: the writes that returned nil or are in flight
	// — every one of them may be on the medium if the process is killed
	// right then — and the commit records on file.
	landed, journaled int
}

func newDepthBackend(b store.Backend, depth, group int) *depthBackend {
	d := &depthBackend{Backend: b, depth: depth, group: func(int) int { return group }, stop: make(chan struct{}),
		second: make(chan struct{}), held: -1, returned: map[int]int{}, reads: map[int]int{},
		writing: map[int]bool{}, evaluating: map[int]bool{}}
	d.gate = sync.NewCond(&d.mu)
	return d
}

func (d *depthBackend) WriteDepth() int { return d.depth }

func (d *depthBackend) StripeDepth() int { return max(d.lanes, 1) }

func (d *depthBackend) faultf(format string, args ...any) {
	d.faults = append(d.faults, fmt.Sprintf(format, args...))
}

func (d *depthBackend) ReadChunk(a store.Addr, dst []byte) (int, error) {
	d.mu.Lock()
	d.reads[a.Stripe]++
	stopHere := a.Stripe == 0 && d.reads[0] == d.stopRead
	if d.over {
		d.faultf("read of %v after the run returned", a)
	}
	if d.lanes <= 1 && d.inFlight > 0 {
		d.faultf("read of %v with %d writes in flight", a, d.inFlight)
	}
	if d.writing[a.Stripe] {
		d.faultf("read of %v after the write-back of its stripe started", a)
	} else {
		d.evaluating[a.Stripe] = true
		d.evalPeak = max(d.evalPeak, len(d.evaluating))
	}
	hold := d.overlap && d.held < 0
	if hold {
		d.held = a.Stripe
	} else if d.held >= 0 && a.Stripe != d.held && d.overlap {
		d.overlap = false
		close(d.second)
	}
	d.mu.Unlock()
	if hold {
		select {
		case <-d.second:
		case <-time.After(5 * time.Second):
		}
	}
	if stopHere {
		// Every stripe a window of lanes holds is dispatched first.
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			d.mu.Lock()
			n := len(d.reads)
			d.mu.Unlock()
			if n >= d.lanes {
				break
			}
		}
		close(d.stop)
	}
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
	d.writing[a.Stripe] = true
	delete(d.evaluating, a.Stripe)
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
	for !d.fired && (d.inFlight < min(d.depth, d.group(a.Stripe)-d.returned[a.Stripe]) || (d.picked && !pick)) {
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
	decoded   bool // the stripes take the GF(2) decoder, not single chains
	damage    func(*testing.T, *store.Mem)
}

// writeFixtures returns the write-back fixtures over the given number of
// stripes, one per kind of plan: three whole STAR p=5 disks killed (every
// stripe loses 3·Rows cells to the decoder), and a partial stripe error
// of five chunks of one disk in every TIP p=7 stripe (single repair
// chains and their check chains, its subtests prefixed "partial-").
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

// depthCase is a fixture of TestWriteBackKeepsDepthInFlight, whose
// stripes may differ in the write-back group they take.
type depthCase struct {
	prefix           string // of the subtest names
	m                store.ArrayManifest
	group            func(stripe int) int
	rebuilt, decoded int // chunks the run rebuilds, and of them through the decoder
	damage           func(*testing.T, *store.Mem)
}

// depthCases are the two write-back fixtures over three stripes and a
// mixed one: TIP p=7 stripes that lose three whole columns (the decoder)
// with every third stripe losing five chunks of one disk instead (single
// chains). Every stripe of each is in lanes at k > 1.
func depthCases() []depthCase {
	var out []depthCase
	for _, f := range writeFixtures(3) {
		rebuilt := f.m.Stripes * f.perStripe
		c := depthCase{f.prefix, f.m, func(int) int { return f.perStripe }, rebuilt, 0, f.damage}
		if f.decoded {
			c.decoded = rebuilt
		}
		out = append(out, c)
	}
	m := testManifest("tip", 7, 6, 64)
	partial := func(s int) bool { return s%3 == 2 }
	mixed := depthCase{prefix: "mixed-", m: m}
	mixed.group = func(s int) int {
		if partial(s) {
			return 5
		}
		return 3 * m.Rows
	}
	for s := 0; s < m.Stripes; s++ {
		mixed.rebuilt += mixed.group(s)
		if !partial(s) {
			mixed.decoded += mixed.group(s)
		}
	}
	mixed.damage = func(t *testing.T, b *store.Mem) {
		for s := 0; s < m.Stripes; s++ {
			if partial(s) {
				loseCells(t, b, s, core.PartialStripeError{Stripe: s, Disk: s % m.Disks, Row: 1, Size: 5}.LostCells())
				continue
			}
			for _, disk := range []int{0, 3, 6} {
				for row := 0; row < m.Rows; row++ {
					loseCells(t, b, s, []grid.Coord{{Row: row, Col: disk}})
				}
			}
		}
	}
	return append(out, mixed)
}

// TestWriteBackKeepsDepthInFlight pins the overlap itself, at every
// stated stripe depth k and write depth: the write pipeline is exactly
// full (never more than depth, more than one on every stripe), no two
// stripes' writes are in flight together, no source of a stripe is read
// once its first write has started, and the result is the serial run's
// to the last counter. At k > 1 every fixture, decoded, chain-major or
// mixed, has two stripes in evaluation at once, and never more than k
// and the one being written back; at k = 1 one at a time.
func TestWriteBackKeepsDepthInFlight(t *testing.T) {
	for _, f := range depthCases() {
		var serial *ServiceResult
		for _, k := range []int{1, 2, 3, 8} {
			for _, depth := range []int{1, 2, 8, 12, 16} {
				name := fmt.Sprint(f.prefix, "depth-", depth)
				if k > 1 {
					name = fmt.Sprint(f.prefix, "lanes-", k, "-depth-", depth)
				}
				t.Run(name, func(t *testing.T) {
					mem := initMem(t, f.m, resumeSeed)
					f.damage(t, mem)
					d := newDepthBackend(mem, depth, 0)
					d.group, d.lanes, d.overlap = f.group, k, k > 1
					res, err := RunService(ServiceConfig{Backend: d, Manifest: f.m, JournalPath: filepath.Join(t.TempDir(), "rebuild.journal")})
					if err != nil {
						t.Fatal(err)
					}
					for _, fault := range d.faults {
						t.Error(fault)
					}
					most := 0
					for s := 0; s < f.m.Stripes; s++ {
						most = max(most, f.group(s))
					}
					if want := min(depth, most); d.peak != want {
						t.Fatalf("at most %d writes were in flight, want %d", d.peak, want)
					}
					switch {
					case k > 1 && d.evalPeak < 2:
						t.Fatalf("at stripe depth %d at most %d stripe was in evaluation at once", k, d.evalPeak)
					case k == 1 && d.evalPeak != 1:
						t.Fatalf("%d stripes in evaluation at once, want one at a time", d.evalPeak)
					case d.evalPeak > k+1:
						t.Fatalf("%d stripes in evaluation at once at stripe depth %d", d.evalPeak, k)
					}
					if len(d.wrote) != f.rebuilt || res.ChunksRebuilt != f.rebuilt || res.ChunksDecoded != f.decoded {
						t.Fatalf("%d writes, %d chunks rebuilt, %d decoded, want %d rebuilt, %d decoded", len(d.wrote), res.ChunksRebuilt, res.ChunksDecoded, f.rebuilt, f.decoded)
					}
					checkAgainstGroundTruth(t, mem, f.m, resumeSeed)
					if serial == nil {
						serial = res
					} else if !reflect.DeepEqual(res, serial) {
						t.Fatalf("stripe depth %d, write depth %d: %+v\nserial: %+v", k, depth, res, serial)
					}
				})
			}
		}
	}
}

// vanished serves one address, present at the scan, as not found to
// every payload read: a source that goes away after the scan.
type vanished struct {
	store.Backend
	addr store.Addr
}

func (v vanished) ReadChunk(a store.Addr, dst []byte) (int, error) {
	if a == v.addr {
		return 0, &store.NotFoundError{Addr: a}
	}
	return v.Backend.ReadChunk(a, dst)
}

// slowAfter makes every payload read of a stripe after the given one
// take a millisecond, so their lanes are still reading when an earlier
// stripe fails.
type slowAfter struct {
	store.Backend
	stripe int
}

func (s slowAfter) ReadChunk(a store.Addr, dst []byte) (int, error) {
	if a.Stripe > s.stripe {
		time.Sleep(time.Millisecond)
	}
	return s.Backend.ReadChunk(a, dst)
}

// TestStripesInFlightErrors runs a failing stripe of decoded ones at
// every stated stripe depth: a source of stripe 2 that vanishes after the
// scan, so its lane returns the cell and the calling goroutine escalates
// and repairs the stripe; and a lying survivor in stripe 1, whose zero
// test fails while later, slower stripes are in lanes. Each run ends as
// the serial one does — the same result or error, the same counters, the
// same writes in the same order and the same journal bytes — and no lane
// outlives it: nothing is read once it has returned, and the goroutine
// count goes back to where it was.
func TestStripesInFlightErrors(t *testing.T) {
	m := testManifest("star", 5, 6, 64)
	victim := AddrOf(2, grid.Coord{Row: 0, Col: 1})
	liarAt := AddrOf(1, grid.Coord{Row: 0, Col: 1})
	for _, tc := range []struct {
		name string
		wrap func(*store.Mem) store.Backend
	}{
		{"vanished-source", func(b *store.Mem) store.Backend { return vanished{b, victim} }},
		{"lying-survivor", func(b *store.Mem) store.Backend { return &liar{Backend: b, addr: liarAt, wrote: map[store.Addr]bool{}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				res     *ServiceResult
				err     string
				cells   ServiceResult
				wrote   []store.Addr
				journal []byte
			}
			var serial *outcome
			for _, k := range []int{1, 2, 3, 8} {
				start := runtime.NumGoroutine()
				mem := initMem(t, m, resumeSeed)
				killDisk(t, mem, 0)
				killDisk(t, mem, 2)
				d := newDepthBackend(slowAfter{tc.wrap(mem), 2}, 1, 2*m.Rows)
				d.lanes = k
				journal := filepath.Join(t.TempDir(), "rebuild.journal")
				cells := new(telemetry.RebuildMetrics)
				res, err := RunService(ServiceConfig{Backend: d, Manifest: m, JournalPath: journal, Metrics: cells})
				d.mu.Lock()
				d.over = true
				d.mu.Unlock()
				deadline := time.Now().Add(time.Second)
				for runtime.NumGoroutine() > start {
					if time.Now().After(deadline) {
						t.Fatalf("k=%d: %d goroutines after the run, %d before", k, runtime.NumGoroutine(), start)
					}
					time.Sleep(time.Millisecond)
				}
				for _, fault := range d.faults {
					t.Error(fault)
				}
				got := &outcome{res: res, wrote: d.wrote}
				tally(cells, &ServiceResult{}, &got.cells)
				if err != nil {
					got.err = err.Error()
				}
				got.journal, _ = os.ReadFile(journal)
				switch tc.name {
				case "vanished-source":
					if err != nil || res.Escalations != 1 || res.DataLoss {
						t.Fatalf("k=%d: err=%v, want one escalation and no loss: %+v", k, err, res)
					}
					checkAgainstGroundTruth(t, mem, m, resumeSeed)
				case "lying-survivor":
					if err == nil || !strings.Contains(err.Error(), "stripe 1:") {
						t.Fatalf("k=%d: err=%v, want stripe 1's zero test to fail", k, err)
					}
					if later := d.reads[2]; (k > 1) != (later > 0) {
						t.Fatalf("k=%d: stripe 2 was read %d times before the run ended", k, later)
					}
				}
				if serial == nil {
					serial = got
				} else if !reflect.DeepEqual(got, serial) {
					t.Fatalf("k=%d: %+v\nserial: %+v", k, got, serial)
				}
			}
		})
	}
}

// TestStripesInFlightStop closes Stop on the last source read of stripe
// 0, at every stated stripe depth, while the stripes after it read slowly.
// Stripe 0's evaluation finishes and none of it is written. At k > 1
// stripe 1 is in evaluation beside it: the stop discards it unwritten and
// unbooked, and no stripe is dispatched after the stop. The result is the
// serial run's to the last counter, no lane outlives the run, and the
// resumed run repairs everything.
func TestStripesInFlightStop(t *testing.T) {
	m := testManifest("star", 5, 4, 64)
	setUp := func() *store.Mem {
		mem := initMem(t, m, resumeSeed)
		for _, disk := range []int{0, 2, 4} {
			killDisk(t, mem, disk)
		}
		return mem
	}
	count := newDepthBackend(setUp(), 1, 3*m.Rows)
	if _, err := RunService(ServiceConfig{Backend: count, Manifest: m}); err != nil {
		t.Fatal(err)
	}
	last := count.reads[0]
	var serial *ServiceResult
	for _, k := range []int{1, 2, 3} {
		start := runtime.NumGoroutine()
		journal := filepath.Join(t.TempDir(), "rebuild.journal")
		mem := setUp()
		d := newDepthBackend(slowAfter{mem, 0}, 1, 3*m.Rows)
		d.lanes, d.stopRead = k, last
		res, err := RunService(ServiceConfig{Backend: d, Manifest: m, JournalPath: journal, Stop: d.stop})
		d.returnedFromRun()
		if err != nil {
			t.Fatalf("k=%d: graceful stop must not be an error: %v", k, err)
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > start {
			if time.Now().After(deadline) {
				t.Fatalf("k=%d: %d goroutines after the run, %d before", k, runtime.NumGoroutine(), start)
			}
			time.Sleep(time.Millisecond)
		}
		d.report(t, 0)
		if !res.Interrupted || res.StripesRepaired != 0 || d.started != 0 {
			t.Fatalf("k=%d: interrupted=%v, %d stripes repaired, %d writes started, want a stop before the first write", k, res.Interrupted, res.StripesRepaired, d.started)
		}
		if d.reads[0] != last {
			t.Fatalf("k=%d: stripe 0 read %d times, want %d", k, d.reads[0], last)
		}
		for s := 1; s < m.Stripes; s++ {
			if ahead := s < k; (d.reads[s] > 0) != ahead {
				t.Fatalf("k=%d: stripe %d read %d times, want reads only of the %d stripes dispatched before the stop", k, s, d.reads[s], k)
			}
		}
		if serial == nil {
			serial = res
		} else if !reflect.DeepEqual(res, serial) {
			t.Fatalf("k=%d: %+v\nserial: %+v", k, res, serial)
		}
		res2, err := RunService(ServiceConfig{Backend: mem, Manifest: m, JournalPath: journal})
		if err != nil {
			t.Fatal(err)
		}
		if res2.Interrupted || res2.DataLoss || res2.ResumedCommits != 0 || res2.ChunksRebuilt != m.Stripes*3*m.Rows {
			t.Fatalf("k=%d: resume: %+v", k, res2)
		}
		checkAgainstGroundTruth(t, mem, m, resumeSeed)
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
		for _, lanes := range []int{1, 2} {
			for k := 1; k <= f.m.Stripes*f.perStripe; k++ {
				t.Run(fmt.Sprint(lanesPrefix(lanes), f.prefix, "write-", k), func(t *testing.T) {
					testWriteFailure(t, f, lanes, depth, k)
				})
			}
		}
	}
}

// lanesPrefix names the subtests run at a stated stripe depth above 1.
func lanesPrefix(lanes int) string {
	if lanes <= 1 {
		return ""
	}
	return fmt.Sprint("lanes-", lanes, "-")
}

// overlapped checks that a run at a stated stripe depth above 1 had both
// of its stripes in evaluation at once, so the in-flight path is the one
// tested.
func (d *depthBackend) overlapped(t *testing.T) {
	t.Helper()
	if d.lanes > 1 && d.evalPeak < 2 {
		t.Fatalf("at stripe depth %d at most %d stripe was in evaluation at once", d.lanes, d.evalPeak)
	}
}

// returnedFromRun marks the run over: a read after this is a lane that
// outlived it, and a fault.
func (d *depthBackend) returnedFromRun() {
	d.mu.Lock()
	d.over = true
	d.mu.Unlock()
}

// report fails t with every fault recorded since the first from, and
// returns the count so far.
func (d *depthBackend) report(t *testing.T, from int) int {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, fault := range d.faults[from:] {
		t.Error(fault)
	}
	return len(d.faults)
}

func testWriteFailure(t *testing.T, f writeFixture, lanes, depth, k int) {
	journal := filepath.Join(t.TempDir(), "rebuild.journal")
	mem := f.setUp(t)
	d := newDepthBackend(mem, depth, f.perStripe)
	d.failWrite, d.journal = k, journal
	d.lanes, d.overlap = lanes, lanes > 1
	_, err := RunService(ServiceConfig{Backend: d, Manifest: f.m, JournalPath: journal})
	d.returnedFromRun()
	if !errors.Is(err, errWriteInjected) {
		t.Fatalf("run returned %v, want the injected write failure", err)
	}
	seen := d.report(t, 0)
	d.overlapped(t)
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
	d.report(t, seen)
}

// TestWriteBackStopMidGroup closes Stop from inside the k-th write while
// the pipeline is full: the writes in flight finish and are booked, none
// starts afterwards, the stripe is not marked done, and the resumed run
// replays exactly the booked writes and repairs the fresh scan's damage
// plus the booked writes of the unfinished stripe. At a stated stripe
// depth of 2 the next stripe is in evaluation while the k-th
// write's stripe is written back; the stop discards it unwritten and
// unbooked, so the result is the serial run's to the last counter, and
// nothing is read once the run has returned.
func TestWriteBackStopMidGroup(t *testing.T) {
	const depth = 4
	for _, f := range writeFixtures(2) {
		serial := map[int]*ServiceResult{}
		for _, lanes := range []int{1, 2} {
			seen := map[int]bool{}
			for _, k := range []int{1, 2, depth, depth + 1, f.perStripe - 1, f.perStripe, f.perStripe + 2} {
				if seen[k] {
					continue
				}
				seen[k] = true
				t.Run(fmt.Sprint(lanesPrefix(lanes), f.prefix, "write-", k), func(t *testing.T) {
					res := testWriteStop(t, f, lanes, depth, k)
					if lanes == 1 {
						serial[k] = res
					} else if !reflect.DeepEqual(res, serial[k]) {
						t.Fatalf("stripe depth %d: %+v\nserial: %+v", lanes, res, serial[k])
					}
				})
			}
		}
	}
}

func testWriteStop(t *testing.T, f writeFixture, lanes, depth, k int) *ServiceResult {
	journal := filepath.Join(t.TempDir(), "rebuild.journal")
	mem := f.setUp(t)
	d := newDepthBackend(mem, depth, f.perStripe)
	d.stopWrite = k
	d.lanes, d.overlap = lanes, lanes > 1
	res, err := RunService(ServiceConfig{Backend: d, Manifest: f.m, JournalPath: journal, Stop: d.stop})
	d.returnedFromRun()
	if err != nil {
		t.Fatalf("graceful stop must not be an error: %v", err)
	}
	seen := d.report(t, 0)
	d.overlapped(t)
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
	d.report(t, seen)
	return res
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
