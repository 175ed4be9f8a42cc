package store

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// tokenBucket paces requests against a rate on Throttle's clock, the
// time since its epoch. Reserve never blocks: a request the bucket
// cannot cover is booked in the future and the bucket's clock advanced
// there, so queued requests space themselves n/rate apart
// deterministically, and the caller sleeps until the booked time. The
// zero value is a bucket that fills to its burst at first use. Not safe
// for concurrent use.
type tokenBucket struct {
	tokens float64
	last   time.Duration
	primed bool
}

// Reserve takes n tokens at now, the bucket refilling at rate tokens per
// second up to burst, and returns when the request may go: now if the
// tokens are there, otherwise the time at which the rate repays what is
// missing behind everything already booked. rate must be positive.
func (b *tokenBucket) Reserve(now time.Duration, n, rate, burst float64) time.Duration {
	if !b.primed {
		b.primed = true
		b.tokens = burst
		b.last = now
	}
	if now > b.last {
		b.tokens, b.last = b.Level(now, rate, burst), now
	}
	if b.tokens >= n {
		b.tokens -= n
		return now
	}
	b.last += time.Duration(math.Ceil((n - b.tokens) / rate * 1e9))
	b.tokens = 0
	return b.last
}

// Level is the bucket's fill at now: refilled and capped at burst, or,
// while requests are booked beyond now, negative by the tokens they have
// yet to be repaid.
func (b *tokenBucket) Level(now time.Duration, rate, burst float64) float64 {
	if !b.primed {
		return burst
	}
	return math.Min(burst, b.tokens+float64(now-b.last)*rate/1e9)
}

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
// queues behind it). Safe for concurrent use.
type Throttle struct {
	inner Backend
	rate  float64 // bytes per second; also the burst

	mu     sync.Mutex
	bucket tokenBucket   // clocked from epoch
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

// clock reads now on the bucket's clock. Callers hold t.mu.
func (t *Throttle) clock() time.Duration {
	now := t.now()
	if t.epoch.IsZero() {
		t.epoch = now
	}
	return now.Sub(t.epoch)
}

// take withdraws n bytes of budget, sleeping until the bucket can cover
// them.
func (t *Throttle) take(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	now := t.clock()
	wait := t.bucket.Reserve(now, float64(n), t.rate, t.rate) - now
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
	Tokens float64       // bucket level now (negative while repaying debt)
	Waits  uint64        // operations that slept for budget
	Waited time.Duration // total time slept
}

// Stats snapshots the throttle's budget state.
func (t *Throttle) Stats() ThrottleStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ThrottleStats{Rate: t.rate, Tokens: t.bucket.Level(t.clock(), t.rate, t.rate), Waits: t.waits, Waited: t.waited}
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
