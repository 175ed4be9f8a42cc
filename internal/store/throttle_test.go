package store

import (
	"testing"
	"time"
)

// fakeClock drives a Throttle deterministically: sleep advances the
// clock instead of blocking, and every sleep is recorded.
type fakeClock struct {
	t      time.Time
	sleeps []time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.t = c.t.Add(d)
}

func throttled(t *testing.T, bps int64) (*Throttle, *Mem, *fakeClock) {
	t.Helper()
	mem := NewMem()
	th, err := NewThrottle(mem, bps)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	th.now, th.sleep = clk.now, clk.sleep
	return th, mem, clk
}

// TestThrottlePacesWrites pins the token-bucket arithmetic: at 1000 B/s
// with a 1000-byte burst, four 1000-byte writes cost three seconds of
// sleep (the first rides the initial burst).
func TestThrottlePacesWrites(t *testing.T) {
	th, _, clk := throttled(t, 1000)
	data := make([]byte, 1000)
	for i := 0; i < 4; i++ {
		if err := th.WriteChunk(Addr{Disk: 0, Stripe: i, Chunk: 0}, data); err != nil {
			t.Fatal(err)
		}
	}
	var total time.Duration
	for _, d := range clk.sleeps {
		total += d
	}
	if total < 2900*time.Millisecond || total > 3100*time.Millisecond {
		t.Fatalf("4x1000B at 1000B/s slept %v, want ~3s", total)
	}
}

// TestThrottleChargesReads pins that reads are charged by bytes
// actually returned, and that the reported level is the bucket's at the
// time asked: in debt while a read sleeps, repaid after, refilled by idle
// time up to the burst.
func TestThrottleChargesReads(t *testing.T) {
	th, mem, clk := throttled(t, 100)
	var levels []float64 // at the start of each sleep
	th.sleep = func(d time.Duration) { levels = append(levels, th.Stats().Tokens); clk.sleep(d) }
	a := Addr{Disk: 0, Stripe: 0, Chunk: 0}
	if err := mem.WriteChunk(a, make([]byte, 300)); err != nil { // direct: uncharged
		t.Fatal(err)
	}
	dst := make([]byte, 300)
	if _, err := th.ReadChunk(a, dst); err != nil {
		t.Fatal(err)
	}
	if got := th.Stats().Tokens; len(levels) != 1 || levels[0] != -200 || got != 0 {
		t.Fatalf("levels during and after the first read: %v, %v; want [-200], 0", levels, got)
	}
	if _, err := th.ReadChunk(a, dst); err != nil {
		t.Fatal(err)
	}
	// First read overdraws the 100-byte burst by 200, second adds 300.
	var total time.Duration
	for _, d := range clk.sleeps {
		total += d
	}
	if total < 4900*time.Millisecond || total > 5100*time.Millisecond {
		t.Fatalf("600B at 100B/s slept %v, want ~5s", total)
	}
	clk.t = clk.t.Add(time.Second)
	if got := th.Stats().Tokens; got != 100 {
		t.Fatalf("level after an idle second: %v, want the 100-byte burst", got)
	}
}

// TestThrottleMetadataIsFree pins that Stat/List/Delete never sleep.
func TestThrottleMetadataIsFree(t *testing.T) {
	th, mem, clk := throttled(t, 1)
	a := Addr{Disk: 2, Stripe: 1, Chunk: 0}
	if err := mem.WriteChunk(a, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Stat(a); err != nil {
		t.Fatal(err)
	}
	if _, err := th.List(a.Disk); err != nil {
		t.Fatal(err)
	}
	if err := th.Delete(a); err != nil {
		t.Fatal(err)
	}
	if len(clk.sleeps) != 0 {
		t.Fatalf("metadata ops slept: %v", clk.sleeps)
	}
}

// TestThrottleValidation rejects nil backends and non-positive rates.
func TestThrottleValidation(t *testing.T) {
	if _, err := NewThrottle(nil, 100); err == nil {
		t.Error("nil backend accepted")
	}
	for _, rate := range []int64{0, -5} {
		if _, err := NewThrottle(NewMem(), rate); err == nil {
			t.Errorf("rate %d accepted", rate)
		}
	}
}

// TestThrottleRefills pins that idle time refills the bucket (capped at
// one second of budget), so a paced workload at or below the rate never
// sleeps.
func TestThrottleRefills(t *testing.T) {
	th, _, clk := throttled(t, 1000)
	data := make([]byte, 500)
	for i := 0; i < 5; i++ {
		if err := th.WriteChunk(Addr{Disk: 0, Stripe: i, Chunk: 0}, data); err != nil {
			t.Fatal(err)
		}
		clk.t = clk.t.Add(time.Second) // idle long enough to refill
	}
	if len(clk.sleeps) != 0 {
		t.Fatalf("paced workload below the rate slept: %v", clk.sleeps)
	}
}

// TestTokenBucketPacing pins Throttle's bucket: the burst issues at
// once, overdraws are booked 1/rate apart behind one another, and idle
// time refills up to the burst.
func TestTokenBucketPacing(t *testing.T) {
	var b tokenBucket
	const rate, burst = 100, 2 // 100 tokens/s => 10 ms apart once drained
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// The burst issues immediately; overdraws space 1/rate apart.
	for i, want := range []time.Duration{0, 0, ms(10), ms(20), ms(30)} {
		if got := b.Reserve(0, 1, rate, burst); got != want {
			t.Fatalf("reserve %d at t=0: got %v, want %v", i, got, want)
		}
	}
	// A reservation arriving mid-queue books after the booked backlog.
	if got := b.Reserve(ms(5), 1, rate, burst); got != ms(40) {
		t.Fatalf("queued reserve at t=5ms: got %v, want 40ms", got)
	}
	// After a long idle stretch the bucket refills, capped at burst: two
	// immediate issues, then spacing resumes.
	idle := 2 * time.Second
	for i, want := range []time.Duration{idle, idle, idle + ms(10)} {
		if got := b.Reserve(idle, 1, rate, burst); got != want {
			t.Fatalf("post-idle reserve %d: got %v, want %v", i, got, want)
		}
	}
}
