package store

import (
	"fmt"
	"math"
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
// still proceeds (it sleeps for its deficit and the next operation
// queues behind it). It starts full at first use. Safe for concurrent
// use.
type Throttle struct {
	inner Backend
	rate  float64 // bytes per second; also the burst

	mu     sync.Mutex
	tokens float64       // the bucket's level at last
	last   time.Duration // on the bucket's clock, the time since epoch
	epoch  time.Time     // the first reading of now
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
	return &Throttle{inner: inner, rate: float64(bytesPerSec), now: time.Now, sleep: time.Sleep}, nil
}

// clock reads now on the bucket's clock, filling the bucket at its first
// reading. Callers hold t.mu.
func (t *Throttle) clock() time.Duration {
	now := t.now()
	if t.epoch.IsZero() {
		t.epoch, t.tokens = now, t.rate
	}
	return now.Sub(t.epoch)
}

// level is the bucket's fill at now: refilled at rate and capped at the
// burst, or, while operations are booked beyond now, negative by the
// bytes they have yet to be repaid. Callers hold t.mu.
func (t *Throttle) level(now time.Duration) float64 {
	return math.Min(t.rate, t.tokens+float64(now-t.last)*t.rate/1e9)
}

// take withdraws n bytes of budget, sleeping until the bucket can cover
// them. It never waits for the lock behind a sleeper: a withdrawal the
// bucket cannot cover is booked at the time the rate repays what is
// missing behind everything already booked, and the bucket's clock is
// advanced there, so queued operations space themselves n/rate apart.
func (t *Throttle) take(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	now := t.clock()
	if now > t.last {
		t.tokens, t.last = t.level(now), now
	}
	var wait time.Duration
	if need := float64(n); t.tokens >= need {
		t.tokens -= need
	} else {
		t.last += time.Duration(math.Ceil((need - t.tokens) / t.rate * 1e9))
		t.tokens = 0
		wait = t.last - now
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
	Tokens float64       // bucket level now (negative while repaying debt)
	Waits  uint64        // operations that slept for budget
	Waited time.Duration // total time slept
}

// Stats snapshots the throttle's budget state.
func (t *Throttle) Stats() ThrottleStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ThrottleStats{Rate: t.rate, Tokens: t.level(t.clock()), Waits: t.waits, Waited: t.waited}
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

// StripeDepth forwards the wrapped backend's stripe depth: concurrent
// readers draw on the one bucket under its lock.
func (t *Throttle) StripeDepth() int { return StripeDepth(t.inner) }
