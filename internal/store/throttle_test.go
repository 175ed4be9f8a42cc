package store

import (
	"fmt"
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

// TestThrottlePacing pins the bucket's booking with the fake clock held
// still across each batch of writes, as for callers arriving together:
// at 100 B/s (a 100-byte burst) two 50-byte writes issue at once, the
// overdraws behind them are booked 50/rate = 500 ms apart, a write
// arriving mid-queue books behind that backlog, and idle time refills
// the bucket up to the burst, not beyond.
func TestThrottlePacing(t *testing.T) {
	th, _, clk := throttled(t, 100)
	var waits []time.Duration
	th.sleep = func(d time.Duration) { waits = append(waits, d) } // the clock stays put
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	writes := func(what string, n int, want ...time.Duration) {
		t.Helper()
		for range n {
			if err := th.WriteChunk(Addr{}, make([]byte, 50)); err != nil {
				t.Fatal(err)
			}
		}
		if fmt.Sprint(waits) != fmt.Sprint(want) {
			t.Fatalf("%s slept %v, want %v", what, waits, want)
		}
		waits = nil
	}
	writes("five writes at t=0", 5, ms(500), ms(1000), ms(1500))
	clk.t = clk.t.Add(ms(250))
	writes("a write at t=250ms, behind writes booked up to 1.5s", 1, ms(1750))
	clk.t = clk.t.Add(4 * time.Second) // the backlog, booked up to 2s, long repaid
	if got := th.Stats().Tokens; got != 100 {
		t.Fatalf("level after idling: %v, want the 100-byte burst", got)
	}
	writes("three writes after idling", 3, ms(500))
}
