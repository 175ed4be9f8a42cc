// journal.go is the write-ahead rebuild journal: an append-only,
// CRC-framed record stream that makes RunService crash-safe and
// resumable. It holds exactly what a resume reads: the array geometry,
// a commit record per chunk the service durably writes back, and a
// marker per stripe it finishes. A process that dies mid-rebuild leaves
// a journal whose replay says which chunks of an unfinished stripe were
// written, so the next run repairs them again with the rest of the
// stripe and continues instead of starting over.
//
// Framing reuses the store's CRC32-Castagnoli discipline: an 8-byte
// file header (magic + version), then frames of
//
//	[1 type][4 payload length LE][payload][4 CRC32C over type+len+payload]
//
// Replay accepts the longest valid prefix and truncates a torn tail —
// the state a crash mid-append leaves — so the journal heals itself the
// same way the chunk store does: detection, never a misread.
package rebuild

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"fbf/internal/store"
)

// Journal framing constants.
const (
	// JournalVersion is the record-stream version this build reads and
	// writes. Version 2 retired the plan record (type 2) and cut the scan
	// record to the geometry.
	JournalVersion = 2
	// journalHeaderSize is the fixed file header: 4 magic + 4 version.
	journalHeaderSize = 8
	// frameOverhead is the per-record framing cost: type + length + CRC.
	frameOverhead = 9
	// maxRecordPayload bounds a declared record length, so a corrupt
	// frame cannot trigger a huge allocation.
	maxRecordPayload = 1 << 20
)

var journalMagic = [4]byte{'F', 'B', 'F', 'J'}

// Record types.
const (
	recScan       byte = 1 // array geometry
	recCommit     byte = 3 // chunk durably written back (+ payload CRC)
	recStripeDone byte = 4 // stripe fully repaired
	recDone       byte = 5 // rebuild complete
)

// ErrJournalVersion reports a journal written by an incompatible build.
var ErrJournalVersion = errors.New("rebuild: unsupported journal version")

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// JournalScan is the journaled array geometry: the guard against
// resuming one store's journal on another.
type JournalScan struct {
	Disks, Rows, Stripes, ChunkSize int
}

// JournalState is the replayed content of a journal: the authoritative
// "what did the previous run get done" view a resuming service starts
// from.
type JournalState struct {
	Scan *JournalScan
	// Commits maps each durably-written chunk to the CRC32C of the
	// payload the previous run wrote.
	Commits map[store.Addr]uint32
	// Done marks stripes repaired to completion since their last commit
	// record: a later commit reopens the stripe.
	Done map[int]bool
	// Complete reports a terminal done record: the rebuild finished and
	// the journal is history, not progress.
	Complete bool
}

// InFlight returns the stripes with a commit record and no later
// stripe-done record — the repairs a crash interrupted — in ascending
// order.
func (st *JournalState) InFlight() []int {
	var out []int
	for a := range st.Commits {
		if !st.Done[a.Stripe] && !slices.Contains(out, a.Stripe) {
			out = append(out, a.Stripe)
		}
	}
	slices.Sort(out)
	return out
}

// Journal is an open write-ahead rebuild journal. Records append at the
// end of the valid prefix; Sync makes them durable. Not safe for
// concurrent use: one goroutine owns the journal — the one that runs the
// service; chunk writes it has in flight on others never touch it.
type Journal struct {
	f    *os.File
	path string
	off  int64
}

// OpenJournal opens (creating if necessary) the journal at path and
// replays it. A fresh file gets the header; an existing one is
// validated, its longest intact prefix replayed into the returned
// state, and any torn tail truncated so appends continue cleanly.
func OpenJournal(path string) (*Journal, *JournalState, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("rebuild: opening journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	state, err := j.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, state, nil
}

// Offset returns the byte offset appends will land at — the "how far
// did we get" coordinate surfaced in interrupt summaries.
func (j *Journal) Offset() int64 { return j.off }

// Sync flushes appended records to stable storage.
func (j *Journal) Sync() error { return j.f.Sync() }

// Close closes the journal file (without removing it).
func (j *Journal) Close() error { return j.f.Close() }

// Remove closes and deletes the journal — the end state of a rebuild
// that ran to completion, leaving the store tree exactly as a clean
// init would.
func (j *Journal) Remove() error {
	if err := j.f.Close(); err != nil {
		os.Remove(j.path)
		return err
	}
	return os.Remove(j.path)
}

// Reset truncates the journal back to its header — used when an
// existing journal records a *completed* rebuild, so a new damage
// episode starts fresh instead of appending to history.
func (j *Journal) Reset() error {
	if err := j.f.Truncate(journalHeaderSize); err != nil {
		return fmt.Errorf("rebuild: resetting journal: %w", err)
	}
	// Truncate does not move the write offset; seek back so the next
	// append lands right after the header instead of beyond a zero gap.
	if _, err := j.f.Seek(journalHeaderSize, io.SeekStart); err != nil {
		return fmt.Errorf("rebuild: resetting journal: %w", err)
	}
	j.off = journalHeaderSize
	return nil
}

// replay validates the header (writing one into an empty file) and
// decodes records until EOF or the first torn/corrupt frame, truncating
// the tail in the latter case.
func (j *Journal) replay() (*JournalState, error) {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return nil, fmt.Errorf("rebuild: reading journal: %w", err)
	}
	state := &JournalState{
		Commits: make(map[store.Addr]uint32),
		Done:    make(map[int]bool),
	}
	if len(data) == 0 {
		var hdr [journalHeaderSize]byte
		copy(hdr[0:4], journalMagic[:])
		binary.LittleEndian.PutUint32(hdr[4:8], JournalVersion)
		if _, err := j.f.Write(hdr[:]); err != nil {
			return nil, fmt.Errorf("rebuild: writing journal header: %w", err)
		}
		j.off = journalHeaderSize
		return state, nil
	}
	if len(data) < journalHeaderSize || [4]byte(data[0:4]) != journalMagic {
		return nil, fmt.Errorf("rebuild: %s is not a rebuild journal", j.path)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != JournalVersion {
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrJournalVersion, v, JournalVersion)
	}
	off := int64(journalHeaderSize)
	rest := data[journalHeaderSize:]
	for {
		typ, payload, n, ok := nextFrame(rest)
		if !ok {
			break
		}
		if err := state.apply(typ, payload); err != nil {
			// A structurally valid frame with nonsense content is
			// corruption the CRC missed conceptually, not a torn tail;
			// fail loudly rather than resuming from lies.
			return nil, err
		}
		off += int64(n)
		rest = rest[n:]
	}
	if int(off) != len(data) {
		// Torn tail from a crash mid-append: truncate to the valid
		// prefix so new records never interleave with debris.
		if err := j.f.Truncate(off); err != nil {
			return nil, fmt.Errorf("rebuild: truncating torn journal tail: %w", err)
		}
	}
	if _, err := j.f.Seek(off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("rebuild: seeking journal: %w", err)
	}
	j.off = off
	return state, nil
}

// nextFrame decodes one frame from b, returning its type, payload and
// total encoded size. ok is false for a torn or corrupt frame (or plain
// EOF).
func nextFrame(b []byte) (typ byte, payload []byte, n int, ok bool) {
	if len(b) < frameOverhead {
		return 0, nil, 0, false
	}
	typ = b[0]
	length := int(binary.LittleEndian.Uint32(b[1:5]))
	if length > maxRecordPayload || len(b) < frameOverhead+length {
		return 0, nil, 0, false
	}
	payload = b[5 : 5+length]
	want := binary.LittleEndian.Uint32(b[5+length : frameOverhead+length])
	if crc32.Checksum(b[:5+length], journalCRC) != want {
		return 0, nil, 0, false
	}
	return typ, payload, frameOverhead + length, true
}

// apply folds one replayed record into the state. A commit reopens its
// stripe: a stripe finished, damaged again and repaired again in a later
// pass is in flight until its next stripe-done record.
func (st *JournalState) apply(typ byte, p []byte) error {
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(p[off:])) }
	switch typ {
	case recScan:
		if len(p) != 16 {
			return fmt.Errorf("rebuild: journal scan record is %d bytes, want 16", len(p))
		}
		st.Scan = &JournalScan{Disks: u32(0), Rows: u32(4), Stripes: u32(8), ChunkSize: u32(12)}
	case recCommit:
		if len(p) != 16 {
			return fmt.Errorf("rebuild: journal commit record is %d bytes, want 16", len(p))
		}
		a := store.Addr{Disk: u32(0), Stripe: u32(4), Chunk: u32(8)}
		st.Commits[a] = binary.LittleEndian.Uint32(p[12:])
		delete(st.Done, a.Stripe)
	case recStripeDone:
		if len(p) != 4 {
			return fmt.Errorf("rebuild: journal stripe-done record is %d bytes, want 4", len(p))
		}
		st.Done[u32(0)] = true
	case recDone:
		if len(p) != 0 {
			return fmt.Errorf("rebuild: journal done record carries %d bytes", len(p))
		}
		st.Complete = true
	default:
		return fmt.Errorf("rebuild: unknown journal record type %d", typ)
	}
	return nil
}

// append frames and writes one record.
func (j *Journal) append(typ byte, payload []byte) error {
	frame := make([]byte, 0, frameOverhead+len(payload))
	frame = append(frame, typ)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, journalCRC))
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("rebuild: appending journal record: %w", err)
	}
	j.off += int64(len(frame))
	return nil
}

// AppendScan journals the array geometry.
func (j *Journal) AppendScan(s JournalScan) error {
	p := make([]byte, 0, 16)
	for _, v := range [...]int{s.Disks, s.Rows, s.Stripes, s.ChunkSize} {
		p = binary.LittleEndian.AppendUint32(p, uint32(v))
	}
	return j.append(recScan, p)
}

// AppendCommit journals one durably-written chunk and its payload CRC.
func (j *Journal) AppendCommit(a store.Addr, payloadCRC uint32) error {
	p := make([]byte, 0, 16)
	p = binary.LittleEndian.AppendUint32(p, uint32(a.Disk))
	p = binary.LittleEndian.AppendUint32(p, uint32(a.Stripe))
	p = binary.LittleEndian.AppendUint32(p, uint32(a.Chunk))
	p = binary.LittleEndian.AppendUint32(p, payloadCRC)
	return j.append(recCommit, p)
}

// AppendStripeDone journals the completion of one stripe's repair.
func (j *Journal) AppendStripeDone(stripe int) error {
	return j.append(recStripeDone, binary.LittleEndian.AppendUint32(nil, uint32(stripe)))
}

// AppendDone journals rebuild completion.
func (j *Journal) AppendDone() error { return j.append(recDone, nil) }

// PayloadCRC computes the CRC32-Castagnoli a commit record carries for
// a chunk payload — exported so drills and tests can cross-check
// journal records against store contents.
func PayloadCRC(payload []byte) uint32 { return crc32.Checksum(payload, journalCRC) }
