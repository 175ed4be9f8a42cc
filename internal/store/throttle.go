package store

import (
	"fmt"
	"sync"
	"time"
)

// Throttle wraps a Backend with a token-bucket byte budget: chunk reads
// and writes consume tokens at payload size, the bucket refills at
// BytesPerSec, and an operation that overdraws the bucket sleeps until
// the deficit is repaid. Metadata operations (Stat, List, Delete) are
// free — the budget models data bandwidth, the resource a rebuild
// steals from foreground traffic.
//
// The bucket holds at most one second of budget, so an idle throttle
// cannot bank an unbounded burst; a single chunk larger than the burst
// still proceeds (the bucket goes negative and the next operation pays
// the debt). Safe for concurrent use.
type Throttle struct {
	inner Backend
	rate  float64 // bytes per second

	mu     sync.Mutex
	tokens float64
	last   time.Time
	waits  uint64        // operations that slept for budget
	waited time.Duration // total time slept

	// Test seams; real use keeps the defaults.
	now   func() time.Time
	sleep func(time.Duration)
}

// NewThrottle wraps inner with a bytesPerSec data-bandwidth budget.
// bytesPerSec must be positive — callers express "unlimited" by not
// wrapping.
func NewThrottle(inner Backend, bytesPerSec int64) (*Throttle, error) {
	if inner == nil {
		return nil, fmt.Errorf("store: throttle over nil backend")
	}
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("store: throttle rate %d B/s is not positive", bytesPerSec)
	}
	return &Throttle{
		inner:  inner,
		rate:   float64(bytesPerSec),
		tokens: float64(bytesPerSec), // start with a full one-second burst
		now:    time.Now,
		sleep:  time.Sleep,
	}, nil
}

// take withdraws n bytes of budget, sleeping while the bucket is in
// deficit.
func (t *Throttle) take(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	now := t.now()
	if !t.last.IsZero() {
		t.tokens += now.Sub(t.last).Seconds() * t.rate
		if t.tokens > t.rate {
			t.tokens = t.rate
		}
	}
	t.last = now
	t.tokens -= float64(n)
	var wait time.Duration
	if t.tokens < 0 {
		wait = time.Duration(-t.tokens / t.rate * float64(time.Second))
	}
	if wait > 0 {
		t.waits++
		t.waited += wait
	}
	t.mu.Unlock()
	if wait > 0 {
		t.sleep(wait)
	}
}

// ThrottleStats is a Throttle's budget state at a point in time.
type ThrottleStats struct {
	Rate   float64       // configured bytes per second
	Tokens float64       // current bucket level (negative while in debt)
	Waits  uint64        // operations that slept for budget
	Waited time.Duration // total time slept
}

// Stats snapshots the throttle's budget state.
func (t *Throttle) Stats() ThrottleStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ThrottleStats{Rate: t.rate, Tokens: t.tokens, Waits: t.waits, Waited: t.waited}
}

// ReadChunk implements Backend, charging the payload size after the
// read (the size is not known up front).
func (t *Throttle) ReadChunk(a Addr, dst []byte) (int, error) {
	n, err := t.inner.ReadChunk(a, dst)
	t.take(n)
	return n, err
}

// WriteChunk implements Backend, charging the payload size.
func (t *Throttle) WriteChunk(a Addr, data []byte) error {
	t.take(len(data))
	return t.inner.WriteChunk(a, data)
}

// Delete implements Backend (uncharged).
func (t *Throttle) Delete(a Addr) error { return t.inner.Delete(a) }

// List implements Backend (uncharged).
func (t *Throttle) List(disk int) ([]Addr, error) { return t.inner.List(disk) }

// Stat implements Backend (uncharged).
func (t *Throttle) Stat(a Addr) (Info, error) { return t.inner.Stat(a) }

// WriteDepth forwards the wrapped backend's write depth: the bucket is
// mutex-guarded, so overlapped writers only queue for budget.
func (t *Throttle) WriteDepth() int { return WriteDepth(t.inner) }
