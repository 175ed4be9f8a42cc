package rebuild

// resume_test.go is the crash-safety property suite: enumerate every
// operation index of a journaled rebuild (three dead disks, or partial
// stripe errors), crash there
// with injected torn debris, and prove the resumed run converges to a
// byte-identical array — plus targeted cases for graceful stop and for
// commits that lie (tampered or wrong chunks, overwritten because a
// resume repairs every committed cell of an unfinished stripe again).

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/grid"
	"fbf/internal/store"
	"fbf/internal/store/faultstore"
)

const resumeSeed int64 = 424242

// openResumeDir opens the on-disk store fixture (fsync off: these tests
// model crash points with faultstore, not with real power loss).
func openResumeDir(t *testing.T, root string) *store.Dir {
	t.Helper()
	d, err := store.OpenDirWith(root, store.DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// initResumeDir materializes a clean array and kills three whole disks.
func initResumeDir(t *testing.T, root string, m store.ArrayManifest) *store.Dir {
	t.Helper()
	d := openResumeDir(t, root)
	if err := InitStore(d, m, resumeSeed); err != nil {
		t.Fatal(err)
	}
	for _, disk := range []int{0, 2, 4} {
		if err := os.RemoveAll(filepath.Join(root, store.DiskDirName(disk))); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// lanedDir is a directory store that states a given stripe depth. It
// embeds the store, not the interface, so faultstore still finds the
// store's crash-debris hooks.
type lanedDir struct {
	*store.Dir
	lanes int
}

func (d lanedDir) StripeDepth() int { return d.lanes }

// TestResumeFromEveryCrashPoint is the tentpole property test: for
// EVERY operation index k of a journaled rebuild, a run crashed at k
// (with torn on-disk debris) leaves a state from which a plain rerun
// converges — no data loss, the array byte-identical to ground truth, and
// the journal cleaned up. The rerun rebuilds every cell its report lists,
// the committed cells of the unfinished stripe among them. The damage is
// a table: three whole disks killed (the decoder), and a partial stripe
// error of five chunks of one disk in every stripe (single repair chains
// and their check chains, the paper's case).
func TestResumeFromEveryCrashPoint(t *testing.T) {
	kill := testManifest("star", 5, 2, 64)
	for _, tc := range []struct {
		name  string
		m     store.ArrayManifest
		group int // writes in each stripe's write-back
		init  func(t *testing.T, root string, m store.ArrayManifest) *store.Dir
	}{
		{"kill-three", kill, 3 * kill.Rows, initResumeDir},
		{"partial", testManifest("tip", 7, 2, 64), 5, func(t *testing.T, root string, m store.ArrayManifest) *store.Dir {
			d := openResumeDir(t, root)
			if err := InitStore(d, m, resumeSeed); err != nil {
				t.Fatal(err)
			}
			losePartialStripes(t, d, m, 5)
			return d
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			crashSweep(t, tc.m, tc.group, tc.init)
		})
	}
}

// crashSweep is TestResumeFromEveryCrashPoint over one damage: init
// materializes the array at root and damages it so that every stripe's
// write-back is a group of writes.
func crashSweep(t *testing.T, m store.ArrayManifest, group int, init func(*testing.T, string, store.ArrayManifest) *store.Dir) {
	// Counting run: the same rebuild against a fault-free wrapper bounds
	// the crash-point sweep. It also watches the write-back and the
	// evaluations: the sweep must kill the overlapped path, several writes
	// in flight and both stripes in evaluation at once, not the serial
	// order a backend that states neither depth gets. Every run states a
	// stripe depth of 2, whatever the host's processor count.
	const lanes = 2
	countRoot := t.TempDir()
	d := init(t, countRoot, m)
	watch := newDepthBackend(d, store.WriteDepth(d), group)
	watch.lanes, watch.overlap = lanes, true
	counter := faultstore.Wrap(watch, faultstore.Plan{})
	res, err := RunService(ServiceConfig{
		Backend: counter, Manifest: m,
		JournalPath: filepath.Join(countRoot, "rebuild.journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataLoss || res.ChunksRebuilt != m.Stripes*group {
		t.Fatalf("rebuilt %d chunks with data loss %v; want %d and none", res.ChunksRebuilt, res.DataLoss, m.Stripes*group)
	}
	checkAgainstGroundTruth(t, d, m, resumeSeed)
	total := counter.Ops()
	if total < 20 {
		t.Fatalf("counting run saw only %d ops; the sweep would prove nothing", total)
	}
	for _, f := range watch.faults {
		t.Error(f)
	}
	if watch.peak < 2 {
		t.Fatalf("counting run had at most %d write in flight; the sweep would prove the serial order only", watch.peak)
	}
	if watch.evalPeak < 2 {
		t.Fatalf("counting run had at most %d stripe in evaluation at once; the sweep would prove the serial order only", watch.evalPeak)
	}

	step := 1
	if testing.Short() {
		step = 7
	}
	resumedCommits, rerepaired := 0, 0
	run := func(k int) {
		root := t.TempDir()
		journal := filepath.Join(root, "rebuild.journal")
		crashing := faultstore.Wrap(lanedDir{init(t, root, m), lanes}, faultstore.Plan{
			Seed: int64(k), CrashAfterOps: k, TornWrites: true,
		})
		if store.WriteDepth(crashing) != watch.depth || store.StripeDepth(crashing) != lanes {
			t.Fatalf("crashing store states write depth %d and stripe depth %d, the counting run had %d and %d",
				store.WriteDepth(crashing), store.StripeDepth(crashing), watch.depth, lanes)
		}
		_, err := RunService(ServiceConfig{Backend: crashing, Manifest: m, JournalPath: journal})
		if !errors.Is(err, faultstore.ErrCrashed) {
			t.Fatalf("crash at op %d: run returned %v, want ErrCrashed", k, err)
		}

		// Next process: reopen the medium (sweeping crash debris) and
		// rerun with the same journal, fault-free.
		re := openResumeDir(t, root)
		requeued := inFlightCommits(replayJournal(t, journal))
		res, err := RunService(ServiceConfig{Backend: re, Manifest: m, JournalPath: journal})
		if err != nil {
			t.Fatalf("resume after crash at op %d: %v", k, err)
		}
		if res.DataLoss {
			t.Fatalf("resume after crash at op %d lost data: %v", k, res.Lost)
		}
		if res.Interrupted {
			t.Fatalf("resume after crash at op %d reports Interrupted without a Stop", k)
		}
		if res.ChunksRebuilt != res.Report.LostChunks() || res.Report.CorruptChunks < requeued {
			t.Fatalf("resume after crash at op %d rebuilt %d chunks of %d listed (%d corrupt), with %d committed cells to repair again",
				k, res.ChunksRebuilt, res.Report.LostChunks(), res.Report.CorruptChunks, requeued)
		}
		resumedCommits += res.ResumedCommits
		rerepaired += requeued
		checkAgainstGroundTruth(t, re, m, resumeSeed)
		if _, err := os.Stat(journal); !os.IsNotExist(err) {
			t.Fatalf("journal survives clean completion after crash at op %d: %v", k, err)
		}
	}
	for k := 1; k <= total; k += step {
		run(k)
	}
	if step > 1 {
		run(total)
	}
	if resumedCommits == 0 {
		t.Fatal("no crash point replayed a journaled commit; the sweep never exercised resume")
	}
	if rerepaired == 0 {
		t.Fatal("no crash point re-repaired a committed cell; the sweep never exercised an unfinished stripe's commits")
	}
}

// crashWithInFlightCommit crashes the kill-three rebuild of a store at
// root at the first crash point that leaves a commit record in an
// unfinished stripe, and returns the journal and that committed chunk.
func crashWithInFlightCommit(t *testing.T, root string, m store.ArrayManifest) (journal string, victim store.Addr) {
	t.Helper()
	journal = filepath.Join(root, "rebuild.journal")
	for k := 20; k < 2000; k += 10 {
		crashing := faultstore.Wrap(initResumeDir(t, root, m), faultstore.Plan{CrashAfterOps: k})
		_, err := RunService(ServiceConfig{Backend: crashing, Manifest: m, JournalPath: journal})
		if err == nil {
			t.Fatalf("no crash point up to op %d left an unfinished stripe", k)
		}
		if !errors.Is(err, faultstore.ErrCrashed) {
			t.Fatal(err)
		}
		st := replayJournal(t, journal)
		for _, stripe := range st.InFlight() {
			for a := range st.Commits {
				if a.Stripe == stripe {
					return journal, a
				}
			}
		}
		if err := os.RemoveAll(root); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(root, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("never found a commit in an unfinished stripe")
	return "", store.Addr{}
}

// TestResumeCatchesTamperedCommit pins what resume does with a committed
// chunk replaced with different (structurally valid) bytes between crash
// and resume: like every committed cell of an unfinished stripe it is
// put back as corrupt damage and repaired again, so the lie is
// overwritten.
func TestResumeCatchesTamperedCommit(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	root := t.TempDir()
	journal, victim := crashWithInFlightCommit(t, root, m)

	// Tamper: replace the committed chunk with different valid bytes.
	re := openResumeDir(t, root)
	buf := make([]byte, m.ChunkSize)
	if _, err := re.ReadChunk(victim, buf); err != nil {
		t.Fatal(err)
	}
	buf[11] ^= 0x55
	if err := re.WriteChunk(victim, buf); err != nil {
		t.Fatal(err)
	}

	res, err := RunService(ServiceConfig{Backend: re, Manifest: m, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CorruptChunks == 0 {
		t.Fatal("tampered commit was not flagged corrupt on resume")
	}
	if res.DataLoss {
		t.Fatal(err)
	}
	checkAgainstGroundTruth(t, re, m, resumeSeed)
}

// TestResumeCatchesLyingCommit pins the commit that lies under a
// matching CRC: a journal whose commit record vouches for bytes that ARE
// what the store holds but are not what the code derives. The scan sees
// a clean store; resume repairs the committed cell again through the
// zero test and overwrites the lie.
func TestResumeCatchesLyingCommit(t *testing.T) {
	m := testManifest("star", 5, 1, 64)
	root := t.TempDir()
	d := openResumeDir(t, root)
	if err := InitStore(d, m, resumeSeed); err != nil {
		t.Fatal(err)
	}

	// Hand-write a "repair" that lies: wrong bytes in the store, and a
	// journal that committed exactly those wrong bytes.
	target := grid.Coord{Row: 0, Col: 0}
	a := AddrOf(0, target)
	wrong := make([]byte, m.ChunkSize)
	if _, err := d.ReadChunk(a, wrong); err != nil {
		t.Fatal(err)
	}
	truth := append([]byte(nil), wrong...)
	wrong[3] ^= 0x80
	if err := d.WriteChunk(a, wrong); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(root, "rebuild.journal")
	j, _, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCommit(a, PayloadCRC(wrong)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The scan alone sees a clean store (the lie is structurally valid);
	// only the journal knows stripe 0 is in flight.
	res, err := RunService(ServiceConfig{Backend: d, Manifest: m, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CorruptChunks != 1 || res.ChunksRebuilt != 1 {
		t.Fatalf("lying commit: %d corrupt, %d rebuilt, want 1 and 1", res.Report.CorruptChunks, res.ChunksRebuilt)
	}
	got := make([]byte, m.ChunkSize)
	if _, err := d.ReadChunk(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, truth) {
		t.Fatal("the lying commit was repaired but the rebuilt bytes are still wrong")
	}
	checkAgainstGroundTruth(t, d, m, resumeSeed)
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("journal survives clean completion: %v", err)
	}
}

// TestResumeCommitAfterDone pins the journal of a stripe repaired twice:
// a first pass committed the cell and finished the stripe, a later pass
// repaired it again and crashed after committing bytes that are wrong.
// The later commit reopens the stripe, so the resume repairs the cell
// again and the store ends byte-exact; a stripe-done record never hides
// a commit that follows it.
func TestResumeCommitAfterDone(t *testing.T) {
	m := testManifest("star", 5, 1, 64)
	root := t.TempDir()
	d := openResumeDir(t, root)
	if err := InitStore(d, m, resumeSeed); err != nil {
		t.Fatal(err)
	}
	a := AddrOf(0, grid.Coord{Row: 2, Col: 1})
	truth := make([]byte, m.ChunkSize)
	if _, err := d.ReadChunk(a, truth); err != nil {
		t.Fatal(err)
	}
	wrong := append([]byte(nil), truth...)
	wrong[5] ^= 0x21
	if err := d.WriteChunk(a, wrong); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(root, "rebuild.journal")
	j, _, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		j.AppendCommit(a, PayloadCRC(truth)),
		j.AppendStripeDone(0),
		j.AppendCommit(a, PayloadCRC(wrong)),
		j.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	res, err := RunService(ServiceConfig{Backend: d, Manifest: m, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CorruptChunks != 1 || res.ChunksRebuilt != 1 {
		t.Fatalf("commit after done: %d corrupt, %d rebuilt, want 1 and 1", res.Report.CorruptChunks, res.ChunksRebuilt)
	}
	checkAgainstGroundTruth(t, d, m, resumeSeed)
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("journal survives clean completion: %v", err)
	}
}

// TestResumeUnreadableOracleSource pins what resume does when a source
// of a committed cell (a member of the first parity chain through it;
// the name is from when resume re-derived commits through the GF(2)
// oracle) reads as missing, corrupt or the wrong size: the committed
// cell is repaired again like any other, the unreadable source escalates
// like any repair's, both are rebuilt, and the store ends byte-exact —
// all three kinds alike, none an engine error.
func TestResumeUnreadableOracleSource(t *testing.T) {
	m := testManifest("star", 5, 1, 64)
	target := grid.Coord{Row: 0, Col: 0}
	a := AddrOf(0, target)
	var victim store.Addr
	for _, c := range codes.MustNew(m.Code, m.P).Layout().ChainsThrough(target)[0].Cells {
		if c != target {
			victim = AddrOf(0, c)
			break
		}
	}
	for kind, fail := range sourceFailures(m.ChunkSize) {
		t.Run(kind, func(t *testing.T) {
			b := initMem(t, m, resumeSeed)
			committed := make([]byte, m.ChunkSize)
			if _, err := b.ReadChunk(a, committed); err != nil {
				t.Fatal(err)
			}
			journal := filepath.Join(t.TempDir(), "rebuild.journal")
			j, _, err := OpenJournal(journal)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendCommit(a, PayloadCRC(committed)); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			res, err := RunService(ServiceConfig{
				Backend:  &unreadable{Backend: b, addr: victim, fail: fail},
				Manifest: m, JournalPath: journal,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ResumedCommits != 1 || res.Escalations != 1 || res.ChunksRebuilt != 2 || res.DataLoss {
				t.Fatalf("%d commits resumed, %d escalations, %d chunks rebuilt, data loss %v; want 1, 1, 2 and none",
					res.ResumedCommits, res.Escalations, res.ChunksRebuilt, res.DataLoss)
			}
			checkAgainstGroundTruth(t, b, m, resumeSeed)
		})
	}
}

// stopAfter closes a stop channel once the backend has absorbed a given
// number of chunk writes or served a given number of payload reads —
// the hook that lands a graceful stop at a chosen point of a stripe. It
// also counts the payload reads each stripe was asked for.
type stopAfter struct {
	store.Backend
	writes, reads   int  // thresholds; zero never fires
	failRead        bool // the read that fires the stop is also served as not found
	written, served int
	stripeReads     map[int]int
	stop            chan struct{}
}

func (s *stopAfter) WriteChunk(a store.Addr, data []byte) error {
	err := s.Backend.WriteChunk(a, data)
	if err == nil {
		s.written++
		if s.written == s.writes {
			close(s.stop)
		}
	}
	return err
}

func (s *stopAfter) ReadChunk(a store.Addr, dst []byte) (int, error) {
	s.served++
	if s.stripeReads == nil {
		s.stripeReads = map[int]int{}
	}
	s.stripeReads[a.Stripe]++
	if s.served == s.reads {
		close(s.stop)
		if s.failRead {
			return 0, &store.NotFoundError{Addr: a}
		}
	}
	return s.Backend.ReadChunk(a, dst)
}

// TestServiceGracefulStop pins the Stop contract: the chunk in flight
// is finished and committed, the journal survives with the progress so
// far, and a rerun resumes to a byte-exact array. The fixture's stripes
// each lose three columns, so they are rebuilt by the read-once decode,
// and the stop lands at each point that pass looks for it: between two
// of its write-backs, before the pass of the next stripe has read
// anything, while a pass is still reading (it has written nothing yet,
// and then writes nothing), and before the pass an escalation restarts
// (which then reads nothing more). The rerun rebuilds the fresh scan's
// damage plus the committed cells of the stripe the stop left
// unfinished, which it repairs again.
//
// before-a-restarted-pass is also the trap of putting back a plan instead
// of the commits: the escalation re-plans with the survivor whose read
// failed, which reads fine on the rerun. Erasing it as well as the three
// dead columns would be four columns, beyond STAR's tolerance, and the
// rerun would report data loss.
func TestServiceGracefulStop(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	perStripe := 3 * m.Rows // lost chunks per stripe
	for _, tc := range []struct {
		name          string
		writes, reads int
		failRead      bool
		wantChunks    int
		wantStripes   int
	}{
		{"between-two-writes", 3, 0, false, 3, 0},
		{"before-the-next-pass", perStripe, 0, false, perStripe, 1},
		{"while-the-pass-reads", 0, 5, false, 0, 0},
		{"before-a-restarted-pass", 0, 5, true, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			journal := filepath.Join(root, "rebuild.journal")
			d := initResumeDir(t, root, m)

			hook := &stopAfter{Backend: d, writes: tc.writes, reads: tc.reads, failRead: tc.failRead, stop: make(chan struct{})}
			res, err := RunService(ServiceConfig{Backend: hook, Manifest: m, JournalPath: journal, Stop: hook.stop})
			if err != nil {
				t.Fatalf("graceful stop must not be an error: %v", err)
			}
			if !res.Interrupted {
				t.Fatal("stopped run does not report Interrupted")
			}
			if res.ChunksRebuilt != tc.wantChunks || hook.written != tc.wantChunks || res.StripesRepaired != tc.wantStripes {
				t.Fatalf("stopped run rebuilt %d chunks (%d writes) in %d stripes, want exactly the %d committed before the stop, %d stripes",
					res.ChunksRebuilt, hook.written, res.StripesRepaired, tc.wantChunks, tc.wantStripes)
			}
			if hook.stripeReads[1] != 0 {
				t.Fatalf("stripe 1 was asked for %d chunks although the stop came first", hook.stripeReads[1])
			}
			if tc.failRead && (hook.served != tc.reads || res.Escalations != 1) {
				t.Fatalf("%d reads and %d escalations; the pass restarted by the escalation at read %d should have seen the stop first",
					hook.served, res.Escalations, tc.reads)
			}
			if res.JournalOffset <= 0 {
				t.Fatalf("stopped run reports journal offset %d", res.JournalOffset)
			}
			if _, err := os.Stat(journal); err != nil {
				t.Fatalf("journal missing after graceful stop: %v", err)
			}

			requeued := inFlightCommits(replayJournal(t, journal))
			res2, err := RunService(ServiceConfig{Backend: d, Manifest: m, JournalPath: journal})
			if err != nil {
				t.Fatal(err)
			}
			if res2.Interrupted || res2.DataLoss {
				t.Fatalf("resume after stop: interrupted=%v dataloss=%v", res2.Interrupted, res2.DataLoss)
			}
			if res2.ResumedCommits != tc.wantChunks {
				t.Fatalf("resume replayed %d commits, want %d", res2.ResumedCommits, tc.wantChunks)
			}
			if want := 2*perStripe - tc.wantChunks + requeued; res2.ChunksRebuilt != want {
				t.Fatalf("resume rebuilt %d chunks, want the %d the stopped run left plus the %d it committed in its unfinished stripe",
					res2.ChunksRebuilt, 2*perStripe-tc.wantChunks, requeued)
			}
			checkAgainstGroundTruth(t, d, m, resumeSeed)
			if _, err := os.Stat(journal); !os.IsNotExist(err) {
				t.Fatalf("journal survives completed resume: %v", err)
			}
		})
	}
}

// TestResumeCommitMissingAgain deletes, between the crash and the resume,
// the disk holding a chunk committed in the unfinished stripe: the fresh
// scan lists that chunk as missing and the journal as committed, and the
// resume must list it once, repair the stripe in one plan, and end
// byte-exact.
func TestResumeCommitMissingAgain(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	root := t.TempDir()
	journal, victim := crashWithInFlightCommit(t, root, m)
	if err := os.RemoveAll(filepath.Join(root, store.DiskDirName(victim.Disk))); err != nil {
		t.Fatal(err)
	}

	re := openResumeDir(t, root)
	res, err := RunService(ServiceConfig{Backend: re, Manifest: m, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataLoss || res.Escalations != 0 || res.Regenerations != 0 {
		t.Fatalf("data loss %v, %d escalations, %d regenerations; want none", res.DataLoss, res.Escalations, res.Regenerations)
	}
	var listed []grid.Coord
	for _, d := range res.Report.Stripes {
		if d.Stripe == victim.Stripe {
			listed = append(listed, d.Lost()...)
		}
	}
	seen := map[grid.Coord]bool{}
	for _, c := range listed {
		if seen[c] {
			t.Fatalf("stripe %d lists %v twice: %v", victim.Stripe, c, listed)
		}
		seen[c] = true
	}
	if !seen[grid.Coord{Row: victim.Chunk, Col: victim.Disk}] {
		t.Fatalf("stripe %d does not list the deleted commit %v: %v", victim.Stripe, victim, listed)
	}
	if res.ChunksRebuilt != res.Report.LostChunks() || res.StripesRepaired != len(res.Report.Stripes) {
		t.Fatalf("rebuilt %d chunks in %d stripes, want the %d listed in %d", res.ChunksRebuilt, res.StripesRepaired, res.Report.LostChunks(), len(res.Report.Stripes))
	}
	checkAgainstGroundTruth(t, re, m, resumeSeed)
}

// TestServiceStopBeforeAnything pins the degenerate stop: a request
// already pending at entry repairs nothing and keeps the journal.
func TestServiceStopBeforeAnything(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	root := t.TempDir()
	d := initResumeDir(t, root, m)
	stop := make(chan struct{})
	close(stop)
	res, err := RunService(ServiceConfig{
		Backend: d, Manifest: m, Stop: stop,
		JournalPath: filepath.Join(root, "rebuild.journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.StripesRepaired != 0 || res.ChunksRebuilt != 0 {
		t.Fatalf("pre-closed stop: interrupted=%v stripes=%d chunks=%d", res.Interrupted, res.StripesRepaired, res.ChunksRebuilt)
	}
}

// TestJournalIncompatibleWithPlanOnlyModes pins the config guard.
func TestJournalIncompatibleWithPlanOnlyModes(t *testing.T) {
	m := testManifest("star", 5, 1, 32)
	b := initMem(t, m, resumeSeed)
	for _, cfg := range []ServiceConfig{
		{Backend: b, Manifest: m, JournalPath: "x", CheckOnly: true},
		{Backend: b, Manifest: m, JournalPath: "x", DryRun: true},
	} {
		if _, err := RunService(cfg); err == nil {
			t.Fatalf("journaled plan-only mode accepted: %+v", cfg)
		}
	}
}

// TestJournalGeometryGuard pins the cross-array guard: a journal
// written for one geometry refuses to resume another.
func TestJournalGeometryGuard(t *testing.T) {
	root := t.TempDir()
	journal := filepath.Join(root, "rebuild.journal")
	j, _, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendScan(JournalScan{Disks: 9, Rows: 6, Stripes: 8, ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	m := testManifest("star", 5, 2, 64)
	b := initMem(t, m, resumeSeed)
	killDisk(t, b, 0)
	if _, err := RunService(ServiceConfig{Backend: b, Manifest: m, JournalPath: journal}); err == nil {
		t.Fatal("geometry-mismatched journal accepted")
	}
}
