// Package faultstore injects deterministic, seeded faults at the
// chunk-store boundary: a wrapping store.Backend that fails reads and
// writes with EIO-style errors, exhausts space, tears writes, stalls,
// and crashes — halting all further I/O mid-operation, the way a killed
// process or a yanked power cord does.
//
// Every injected outcome is a pure function of (seed, operation index),
// so a (plan, operation sequence) pair always yields identical faults
// and a failing drill replays bit-for-bit. The plan decides the fate of
// real bytes — which lets the rebuild journal's crash-resume property
// test enumerate every crash point of an actual repair.
package faultstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fbf/internal/store"
)

// Injected-fault sentinels, matchable with errors.Is. None of them maps
// onto store.ErrNotFound or store.ErrCorrupt: an injected fault is an
// environment failure, not a statement about the chunk, so the rebuild
// service treats it as fatal (and the daemon as retryable) rather than
// escalating the cell.
var (
	// ErrInjectedIO is the injected EIO: the operation failed and the
	// on-media state is whatever the tear policy left behind.
	ErrInjectedIO = errors.New("faultstore: injected I/O error")
	// ErrNoSpace is the injected ENOSPC: writes fail once the plan's
	// write budget is spent.
	ErrNoSpace = errors.New("faultstore: no space left on device")
	// ErrCrashed reports the crash point has been reached: the
	// in-flight operation and every operation after it fail, modeling
	// process death mid-I/O.
	ErrCrashed = errors.New("faultstore: crashed (all further I/O halted)")
)

// Plan parameterizes the injected faults. The zero value injects
// nothing.
type Plan struct {
	// Seed drives every probabilistic decision; same seed, same
	// operation sequence, same faults.
	Seed int64

	// ReadErrRate and WriteErrRate inject per-operation EIO failures on
	// ReadChunk and WriteChunk.
	ReadErrRate  float64
	WriteErrRate float64

	// TornWrites makes injected write failures (EIO and the crash
	// point) leave torn on-media debris when the wrapped backend can
	// materialize it — a truncated chunk at the final location
	// (store.Dir.TornWrite) for EIO, an orphaned
	// partial temp file (store.Dir.CrashWrite) for the crash point.
	// Backends without the hooks fail cleanly, which models an atomic
	// medium.
	TornWrites bool

	// NoSpaceAfterWrites fails every write after the first N succeed
	// with ErrNoSpace. Zero never runs out.
	NoSpaceAfterWrites int

	// CrashAfterOps makes operation number N (1-based, counting every
	// backend call) and all later operations fail with ErrCrashed.
	// Zero never crashes.
	CrashAfterOps int

	// StallEvery sleeps Stall before every N-th operation — latency
	// injection for timeout and pacing drills. Zero never stalls.
	StallEvery int
	Stall      time.Duration
}

// tornWriter is the optional debris hook a backend implements to
// materialize a non-atomic torn write (store.Dir).
type tornWriter interface {
	TornWrite(a store.Addr, data []byte, keep int) error
}

// crashWriter is the optional debris hook a backend implements to
// materialize a write killed mid-flight (store.Dir's orphan temp file).
type crashWriter interface {
	CrashWrite(a store.Addr, data []byte, keep int) error
}

// Store wraps a Backend with a fault Plan. Safe for concurrent use; the
// operation counter serializes fault decisions, so concurrent callers
// see a deterministic fault *set* (though its distribution over callers
// follows scheduling).
type Store struct {
	inner store.Backend
	plan  Plan

	mu      sync.Mutex
	ops     int
	writes  int // writes that succeeded or hold a slot of the ENOSPC budget
	crashed bool

	sleep func(time.Duration) // test seam; default time.Sleep
}

// Wrap puts a fault plan in front of a backend.
func Wrap(inner store.Backend, plan Plan) *Store {
	return &Store{inner: inner, plan: plan, sleep: time.Sleep}
}

// WriteDepth forwards the wrapped backend's write depth (see
// store.WriteDepth): fault decisions are serialized by the operation
// counter, so overlapped writers are safe.
func (s *Store) WriteDepth() int { return store.WriteDepth(s.inner) }

// Ops returns the number of operations the store has seen — the
// coordinate space CrashAfterOps indexes, so a counting run bounds a
// crash-point sweep.
func (s *Store) Ops() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Crashed reports whether the crash point has been reached.
func (s *Store) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// begin accounts one operation and returns its index, whether the
// crash point fires on it, and any stall to serve first.
func (s *Store) begin() (op int, crash bool) {
	s.mu.Lock()
	s.ops++
	op = s.ops
	if s.crashed {
		s.mu.Unlock()
		return op, true
	}
	if s.plan.CrashAfterOps > 0 && op >= s.plan.CrashAfterOps {
		s.crashed = true
		s.mu.Unlock()
		return op, true
	}
	stall := s.plan.StallEvery > 0 && op%s.plan.StallEvery == 0 && s.plan.Stall > 0
	s.mu.Unlock()
	if stall {
		s.sleep(s.plan.Stall)
	}
	return op, false
}

// ReadChunk implements store.Backend.
func (s *Store) ReadChunk(a store.Addr, dst []byte) (int, error) {
	op, crash := s.begin()
	if crash {
		return 0, fmt.Errorf("faultstore: read %v: %w", a, ErrCrashed)
	}
	if s.plan.ReadErrRate > 0 && draw(s.plan.Seed, uint64(op), 0xEAD) < s.plan.ReadErrRate {
		return 0, fmt.Errorf("faultstore: read %v: %w", a, ErrInjectedIO)
	}
	return s.inner.ReadChunk(a, dst)
}

// WriteChunk implements store.Backend. A write that fails at the crash
// point leaves the debris a killed writer would (an orphan partial temp
// file, via the backend's CrashWrite hook); an injected EIO with
// TornWrites leaves a torn chunk at the final location (TornWrite
// hook). Backends without the hooks fail with the old contents intact.
func (s *Store) WriteChunk(a store.Addr, data []byte) error {
	op, crash := s.begin()
	if crash {
		if s.plan.TornWrites {
			if cw, ok := s.inner.(crashWriter); ok {
				// Debris errors are secondary; the crash dominates.
				_ = cw.CrashWrite(a, data, s.keep(op, len(data)))
			}
		}
		return fmt.Errorf("faultstore: write %v: %w", a, ErrCrashed)
	}
	// The ENOSPC budget is reserved where it is checked and given back if
	// the write fails, so exactly NoSpaceAfterWrites writes succeed
	// however concurrent writers interleave.
	s.mu.Lock()
	budgetSpent := s.plan.NoSpaceAfterWrites > 0 && s.writes >= s.plan.NoSpaceAfterWrites
	if !budgetSpent {
		s.writes++
	}
	s.mu.Unlock()
	if budgetSpent {
		return fmt.Errorf("faultstore: write %v: %w", a, ErrNoSpace)
	}
	err := s.write(op, a, data)
	if err != nil {
		s.mu.Lock()
		s.writes--
		s.mu.Unlock()
	}
	return err
}

// write performs a write the crash point and the ENOSPC budget let
// through: the injected EIO, or the inner backend's own outcome.
func (s *Store) write(op int, a store.Addr, data []byte) error {
	if s.plan.WriteErrRate > 0 && draw(s.plan.Seed, uint64(op), 0x217E) < s.plan.WriteErrRate {
		if s.plan.TornWrites {
			if tw, ok := s.inner.(tornWriter); ok {
				_ = tw.TornWrite(a, data, s.keep(op, len(data)))
			}
		}
		return fmt.Errorf("faultstore: write %v: %w", a, ErrInjectedIO)
	}
	return s.inner.WriteChunk(a, data)
}

// keep derives the deterministic prefix length a torn or crashed write
// retains: somewhere strictly inside the encoded chunk, so the debris
// is genuinely partial.
func (s *Store) keep(op, payloadLen int) int {
	total := store.HeaderSize + payloadLen
	if total <= 1 {
		return 0
	}
	return 1 + int(draw(s.plan.Seed, uint64(op), 0x7EA2)*float64(total-1))
}

// Delete implements store.Backend.
func (s *Store) Delete(a store.Addr) error {
	_, crash := s.begin()
	if crash {
		return fmt.Errorf("faultstore: delete %v: %w", a, ErrCrashed)
	}
	return s.inner.Delete(a)
}

// List implements store.Backend.
func (s *Store) List(disk int) ([]store.Addr, error) {
	_, crash := s.begin()
	if crash {
		return nil, fmt.Errorf("faultstore: list disk %d: %w", disk, ErrCrashed)
	}
	return s.inner.List(disk)
}

// Stat implements store.Backend.
func (s *Store) Stat(a store.Addr) (store.Info, error) {
	_, crash := s.begin()
	if crash {
		return store.Info{}, fmt.Errorf("faultstore: stat %v: %w", a, ErrCrashed)
	}
	return s.inner.Stat(a)
}

// draw hashes (seed, op, salt) into a uniform float in [0, 1) with a
// splitmix64 finalizer, keyed by operation index instead of address so
// a plan is reproducible across address orders too.
func draw(seed int64, op, salt uint64) float64 {
	x := uint64(seed)
	for _, v := range [...]uint64{op, salt} {
		x += v + 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return float64(x>>11) / (1 << 53)
}
