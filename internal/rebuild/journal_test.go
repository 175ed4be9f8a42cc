package rebuild

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fbf/internal/store"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "rebuild.journal")
}

// TestJournalRoundTrip pins the record codec: every record type written
// by one journal is replayed identically by the next open.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scan != nil || len(st.Commits) != 0 || len(st.Done) != 0 || st.Complete {
		t.Fatalf("fresh journal replayed non-empty state: %+v", st)
	}
	scan := JournalScan{Disks: 7, Rows: 6, Stripes: 4, ChunkSize: 4096}
	if err := j.AppendScan(scan); err != nil {
		t.Fatal(err)
	}
	a := store.Addr{Disk: 2, Stripe: 1, Chunk: 0}
	if err := j.AppendCommit(a, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendStripeDone(1); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, st2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st2.Scan == nil || *st2.Scan != scan {
		t.Fatalf("scan replay = %+v, want %+v", st2.Scan, scan)
	}
	if crc, ok := st2.Commits[a]; !ok || crc != 0xDEADBEEF {
		t.Fatalf("commit replay = %x (%v)", crc, ok)
	}
	if !st2.Done[1] || st2.Complete {
		t.Fatalf("done replay: Done[1]=%v Complete=%v", st2.Done[1], st2.Complete)
	}
	if len(st2.InFlight()) != 0 {
		t.Fatalf("completed stripe reported in flight: %v", st2.InFlight())
	}
	if j2.Offset() != j.Offset() {
		t.Fatalf("reopened offset %d, want %d", j2.Offset(), j.Offset())
	}
}

// TestJournalInFlight pins the resume entry point: stripes with a commit
// record and no later stripe-done record are in flight, in ascending
// order. A stripe with no commit has nothing to repair again, and a
// commit after a stripe's done record (a later pass repairing it anew)
// reopens it.
func TestJournalInFlight(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, stripe := range []int{5, 1, 3, 7, 5} {
		if err := j.AppendCommit(store.Addr{Disk: stripe % 2, Stripe: stripe, Chunk: 0}, uint32(stripe)); err != nil {
			t.Fatal(err)
		}
	}
	for _, stripe := range []int{3, 7, 9} {
		if err := j.AppendStripeDone(stripe); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendCommit(store.Addr{Disk: 2, Stripe: 7, Chunk: 1}, 1); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := st.InFlight(); !reflect.DeepEqual(got, []int{1, 5, 7}) {
		t.Fatalf("InFlight = %v, want [1 5 7]", got)
	}
}

// TestJournalTruncatesTornTail pins crash-mid-append healing: a journal
// whose last frame is torn replays its intact prefix and truncates the
// debris, at every possible tear offset.
func TestJournalTruncatesTornTail(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendStripeDone(7); err != nil {
		t.Fatal(err)
	}
	intact := j.Offset()
	if err := j.AppendCommit(store.Addr{Disk: 1, Stripe: 2, Chunk: 3}, 42); err != nil {
		t.Fatal(err)
	}
	full := j.Offset()
	j.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := intact + 1; cut < full; cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, st, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !st.Done[7] {
			t.Fatalf("cut at %d: intact prefix lost", cut)
		}
		if len(st.Commits) != 0 {
			t.Fatalf("cut at %d: torn commit replayed", cut)
		}
		if j2.Offset() != intact {
			t.Fatalf("cut at %d: offset %d, want %d", cut, j2.Offset(), intact)
		}
		// Appends after healing land cleanly.
		if err := j2.AppendStripeDone(9); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		j3, st3, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if !st3.Done[7] || !st3.Done[9] {
			t.Fatalf("cut at %d: post-heal append lost: %v", cut, st3.Done)
		}
		j3.Close()
	}
}

// TestJournalDetectsBitFlips pins the CRC framing: flipping any byte of
// a record makes replay stop at (or reject) the damaged frame rather
// than acting on it.
func TestJournalDetectsBitFlips(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCommit(store.Addr{Disk: 4, Stripe: 0, Chunk: 1}, 99); err != nil {
		t.Fatal(err)
	}
	j.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := journalHeaderSize; i < len(whole); i++ {
		damaged := append([]byte(nil), whole...)
		damaged[i] ^= 0x40
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, st, err := OpenJournal(path)
		if err != nil {
			// A flip that yields a structurally-valid frame with
			// nonsense content is rejected loudly; that's fine too.
			continue
		}
		if len(st.Commits) != 0 {
			t.Fatalf("flip at %d: damaged commit replayed as %v", i, st.Commits)
		}
		j2.Close()
	}
}

// TestJournalRejectsForeignFiles pins the header guard.
func TestJournalRejectsForeignFiles(t *testing.T) {
	path := journalPath(t)
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("foreign file accepted as a journal")
	}

	// Wrong version: right magic, the retired v1 or a future version.
	for _, v := range []byte{1, 0xFF} {
		bad := append(journalMagic[:], v, 0, 0, 0)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenJournal(path); !errors.Is(err, ErrJournalVersion) {
			t.Fatalf("version %d = %v, want ErrJournalVersion", v, err)
		}
	}
}

// TestJournalResetAndRemove pins the lifecycle: Reset empties a
// completed journal back to its header; Remove deletes the file.
func TestJournalResetAndRemove(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDone(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete {
		t.Fatal("done record not replayed")
	}
	if err := j2.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := j2.AppendStripeDone(0); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, st3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Complete || !st3.Done[0] {
		t.Fatalf("post-reset state: %+v", st3)
	}
	if err := j3.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal survives Remove: %v", err)
	}
}

// FuzzJournal replays arbitrary bytes as a journal file. OpenJournal must
// never panic and must return its errors; a journal it accepts is left
// truncated to Offset(), reopens to a deeply equal state at the same
// offset, and takes a record appended after its (healed) tail back on the
// next open. The checked-in corpus (testdata/fuzz/FuzzJournal) pins a
// valid journal plus a torn mid-frame tail, a flipped CRC bit, reordered
// and duplicated commits, a commit after its stripe's done record, a
// frame of the retired plan type and a v1 header;
// TestJournalFuzzCorpus holds each seed to the verdict its name states.
func FuzzJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := journalPath(t)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, st, err := OpenJournal(path)
		if err != nil {
			if j != nil || st != nil {
				t.Fatalf("OpenJournal failed (%v) but returned a journal or a state", err)
			}
			return
		}
		off := j.Offset()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != off {
			t.Fatalf("accepted journal is %v bytes (%v), Offset() says %d", fi.Size(), err, off)
		}
		j, again, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopening an accepted journal: %v", err)
		}
		if !reflect.DeepEqual(st, again) || j.Offset() != off {
			t.Fatalf("reopen replayed %+v at %d, first open %+v at %d", again, j.Offset(), st, off)
		}
		a := store.Addr{Disk: 1, Stripe: 2, Chunk: 3}
		if err := j.AppendCommit(a, 0xC0FFEE); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, after, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopening after an append: %v", err)
		}
		again.Commits[a] = 0xC0FFEE
		delete(again.Done, a.Stripe)
		if !reflect.DeepEqual(again, after) {
			t.Fatalf("appended commit did not replay: %+v, want %+v", after, again)
		}
	})
}

// TestJournalFuzzCorpus opens every checked-in FuzzJournal seed and holds
// it to the verdict its name states, so a format change that turns the
// corpus into version-check rejections fails here instead of leaving the
// fuzz target checking nothing.
func TestJournalFuzzCorpus(t *testing.T) {
	accept := map[string]bool{
		"valid": true, "crc-bit-flip": true, "torn-tail": true, "reordered-commits": true,
		"duplicated-commit": true, "commit-after-done": true,
		"wrong-version": false, "plan-count-mismatch": false,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournal")
	seeds, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != len(accept) {
		t.Fatalf("%d seeds in %s, want the %d named here", len(seeds), dir, len(accept))
	}
	for _, seed := range seeds {
		want, ok := accept[seed.Name()]
		if !ok {
			t.Fatalf("seed %s has no stated verdict", seed.Name())
		}
		raw, err := os.ReadFile(filepath.Join(dir, seed.Name()))
		if err != nil {
			t.Fatal(err)
		}
		header, body, _ := strings.Cut(string(raw), "\n")
		quoted, ok := strings.CutPrefix(strings.TrimSpace(body), "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if header != "go test fuzz v1" || !ok || err != nil {
			t.Fatalf("seed %s is not a []byte corpus entry: %v", seed.Name(), err)
		}
		path := journalPath(t)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		j, st, err := OpenJournal(path)
		if (err == nil) != want {
			t.Fatalf("seed %s: OpenJournal error %v, want accepted=%v", seed.Name(), err, want)
		}
		if err != nil {
			continue
		}
		j.Close()
		if seed.Name() == "commit-after-done" && !reflect.DeepEqual(st.InFlight(), []int{1}) {
			t.Fatalf("seed %s: InFlight = %v, want the reopened stripe [1]", seed.Name(), st.InFlight())
		}
	}
}
