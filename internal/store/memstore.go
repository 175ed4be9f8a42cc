package store

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Mem is the in-memory Backend for tests: a mutex-guarded map of
// payload copies. It has no on-media codec, so chunks never read as
// corrupt — corruption-path tests use Dir, whose codec is real.
type Mem struct {
	mu sync.RWMutex
	m  map[Addr][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[Addr][]byte)} }

// ReadChunk implements Backend. A stored payload is never written to —
// WriteChunk installs a fresh copy — so the copy out is made after the
// lock is released and a long read does not hold up a writer.
func (s *Mem) ReadChunk(a Addr, dst []byte) (int, error) {
	s.mu.RLock()
	data, ok := s.m[a]
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
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.m[a] = cp
	s.mu.Unlock()
	return nil
}

// Delete implements Backend.
func (s *Mem) Delete(a Addr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[a]; !ok {
		return &NotFoundError{Addr: a}
	}
	delete(s.m, a)
	return nil
}

// List implements Backend.
func (s *Mem) List(disk int) ([]Addr, error) {
	s.mu.RLock()
	var out []Addr
	for a := range s.m {
		if a.Disk == disk {
			out = append(out, a)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// Stat implements Backend.
func (s *Mem) Stat(a Addr) (Info, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.m[a]
	if !ok {
		return Info{}, &NotFoundError{Addr: a}
	}
	return Info{Addr: a, Size: len(data)}, nil
}
