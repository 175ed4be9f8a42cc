package store

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Mem is the in-memory Backend for tests and benchmarks: a
// mutex-guarded map of payload copies per disk, so List touches only
// the listed disk's chunks. It has no on-media codec, so chunks never
// read as corrupt — corruption-path tests use Dir, whose codec is real.
type Mem struct {
	mu    sync.RWMutex
	disks map[int]map[Addr][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{disks: make(map[int]map[Addr][]byte)} }

// ReadChunk implements Backend. A stored payload is never written to —
// WriteChunk installs a fresh copy — so the copy out is made after the
// lock is released and a long read does not hold up a writer.
func (s *Mem) ReadChunk(a Addr, dst []byte) (int, error) {
	s.mu.RLock()
	data, ok := s.disks[a.Disk][a]
	s.mu.RUnlock()
	if !ok {
		return 0, &NotFoundError{Addr: a}
	}
	if len(dst) < len(data) {
		return 0, fmt.Errorf("store: %v: destination buffer %d bytes, chunk payload %d", a, len(dst), len(data))
	}
	return copy(dst, data), nil
}

// StripeDepth states Mem's stripe depth (see store.StripeDepth): a read
// is a memory copy and a stripe's evaluation is XOR, so a rebuild keeps
// a stripe in evaluation per processor Go may run on.
func (s *Mem) StripeDepth() int { return runtime.GOMAXPROCS(0) }

// WriteChunk implements Backend.
func (s *Mem) WriteChunk(a Addr, data []byte) error {
	if !a.Valid() {
		return fmt.Errorf("store: invalid address %v", a)
	}
	cp := bytes.Clone(data)
	s.mu.Lock()
	disk := s.disks[a.Disk]
	if disk == nil {
		disk = make(map[Addr][]byte)
		s.disks[a.Disk] = disk
	}
	disk[a] = cp
	s.mu.Unlock()
	return nil
}

// Delete implements Backend.
func (s *Mem) Delete(a Addr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	disk := s.disks[a.Disk]
	if _, ok := disk[a]; !ok {
		return &NotFoundError{Addr: a}
	}
	delete(disk, a)
	return nil
}

// List implements Backend.
func (s *Mem) List(disk int) ([]Addr, error) {
	s.mu.RLock()
	chunks := s.disks[disk]
	out := make([]Addr, 0, len(chunks))
	for a := range chunks {
		out = append(out, a)
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b Addr) int {
		if c := cmp.Compare(a.Stripe, b.Stripe); c != 0 {
			return c
		}
		return cmp.Compare(a.Chunk, b.Chunk)
	})
	return out, nil
}

// Stat implements Backend.
func (s *Mem) Stat(a Addr) (Info, error) {
	s.mu.RLock()
	data, ok := s.disks[a.Disk][a]
	s.mu.RUnlock()
	if !ok {
		return Info{}, &NotFoundError{Addr: a}
	}
	return Info{Addr: a, Size: len(data)}, nil
}
