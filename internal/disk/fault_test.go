package disk

import (
	"testing"

	"fbf/internal/grid"
	"fbf/internal/sim"
)

func TestFaultKindString(t *testing.T) {
	cases := map[FaultKind]string{
		FaultNone:      "none",
		FaultTransient: "transient",
		FaultURE:       "ure",
		FaultDiskFail:  "disk-fail",
		FaultKind(99):  "FaultKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestSeededUREIsPerAddressStable(t *testing.T) {
	// An address either always UREs or never does: re-reading the same
	// address must give the same outcome on every attempt, and two plans
	// with the same seed must agree.
	p1 := NewSeededFaultPlan(2, 42, 0.3, 0, 0)
	p2 := NewSeededFaultPlan(2, 42, 0.3, 0, 0)
	var failed, ok int
	for addr := int64(0); addr < 200; addr++ {
		r := &Request{Addr: addr}
		first := p1.Outcome(r, 0)
		if got := p2.Outcome(r, 0); got != first {
			t.Fatalf("addr %d: plans with equal seeds disagree (%v vs %v)", addr, first, got)
		}
		for attempt := 0; attempt < 3; attempt++ {
			if got := p1.Outcome(r, sim.Time(attempt)); got != first {
				t.Fatalf("addr %d attempt %d: outcome changed %v -> %v", addr, attempt, first, got)
			}
		}
		if first == FaultURE {
			failed++
		} else {
			ok++
		}
	}
	if failed == 0 || ok == 0 {
		t.Errorf("URE rate 0.3 over 200 addresses gave failed=%d ok=%d; draw looks degenerate", failed, ok)
	}
}

func TestSeededTransientIsPerAttempt(t *testing.T) {
	// Transient outcomes are drawn per attempt: with a high rate some
	// attempt sequences must mix failures and successes on one address.
	p := NewSeededFaultPlan(0, 7, 0, 0.5, 0)
	mixed := false
	for addr := int64(0); addr < 50 && !mixed; addr++ {
		r := &Request{Addr: addr}
		var sawFail, sawOK bool
		for attempt := 0; attempt < 8; attempt++ {
			switch p.Outcome(r, 0) {
			case FaultTransient:
				sawFail = true
			case FaultNone:
				sawOK = true
			}
		}
		mixed = sawFail && sawOK
	}
	if !mixed {
		t.Error("no address mixed transient failures and successes across attempts")
	}
}

func TestSeededPlanWritesNeverFault(t *testing.T) {
	p := NewSeededFaultPlan(0, 1, 1.0, 1.0, 0)
	for addr := int64(0); addr < 20; addr++ {
		if got := p.Outcome(&Request{Addr: addr, Write: true}, 0); got != FaultNone {
			t.Fatalf("write at addr %d faulted: %v", addr, got)
		}
	}
}

func TestUREDeliveredAtCompletion(t *testing.T) {
	s := sim.New()
	d := NewDisk(0, s, PaperFixedLatency())
	d.SetFaultPlan(NewSeededFaultPlan(0, 3, 1.0, 0, 0)) // every read UREs
	var r *Request
	req := &Request{Addr: 5, Size: 1}
	req.Done = func(_, _ sim.Time) { r = req }
	d.Submit(req)
	s.Run()
	if r == nil {
		t.Fatal("Done never ran")
	}
	if !r.Failed || r.Fault != FaultURE {
		t.Errorf("request = failed=%v fault=%v, want URE", r.Failed, r.Fault)
	}
	st := d.Stats()
	if st.Failed != 1 || st.Reads != 0 {
		t.Errorf("stats = %+v, want Failed=1 Reads=0", st)
	}
}

func TestWholeDiskFailureDrainsQueue(t *testing.T) {
	s := sim.New()
	d := NewDisk(0, s, PaperFixedLatency())
	// Fail at 15 ms: the first request (completing at 10 ms) succeeds,
	// the second (in service, would complete at 20 ms) fails at its
	// completion, the third (still queued at 15 ms) fails immediately.
	d.SetFaultPlan(NewSeededFaultPlan(0, 1, 0, 0, 15*sim.Millisecond))
	type rec struct {
		fault FaultKind
		at    sim.Time
	}
	var got []rec
	for i := 0; i < 3; i++ {
		r := &Request{Addr: int64(i), Size: 1}
		r.Done = func(_, completed sim.Time) { got = append(got, rec{r.Fault, completed}) }
		d.Submit(r)
	}
	s.Run()
	if len(got) != 3 {
		t.Fatalf("completions = %v", got)
	}
	want := []rec{
		{FaultNone, 10 * sim.Millisecond},
		{FaultDiskFail, 15 * sim.Millisecond}, // queued request fails when the disk dies
		{FaultDiskFail, 20 * sim.Millisecond}, // in-service request fails at its completion
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("completion %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if !d.Failed() {
		t.Error("disk should report Failed")
	}
	// Submissions after failure also fail, asynchronously.
	late := &Request{Addr: 9, Size: 1}
	var lateFault FaultKind
	sawLate := false
	late.Done = func(_, _ sim.Time) { sawLate, lateFault = true, late.Fault }
	d.Submit(late)
	if sawLate {
		t.Error("dead-disk submission completed synchronously")
	}
	s.Run()
	if !sawLate || lateFault != FaultDiskFail {
		t.Errorf("late request: done=%v fault=%v", sawLate, lateFault)
	}
}

func TestArrayFaultForAndSpareFailover(t *testing.T) {
	s := sim.New()
	a, err := NewArray(s, ArrayConfig{
		Disks: 4, Rows: 4, Stripes: 10, ChunkSize: 1024,
		FaultFor: func(i int) FaultPlan {
			if i == 1 {
				return NewSeededFaultPlan(i, 1, 0, 0, 1*sim.Millisecond)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2 * sim.Millisecond)
	if !a.Disk(1).Failed() {
		t.Fatal("disk 1 should have failed at 1 ms")
	}
	if got := a.SpareTarget(1); got != 2 {
		t.Errorf("SpareTarget(1) = %d, want 2 (next surviving disk)", got)
	}
	if got := a.SpareTarget(0); got != 0 {
		t.Errorf("SpareTarget(0) = %d, want 0", got)
	}
	completions := 0
	r := &Request{Done: func(_, _ sim.Time) { completions++ }}
	target, addr := a.WriteSpareReq(1, r)
	if target != 2 || addr != a.spareBase {
		t.Errorf("WriteSpareReq = (%d, %d), want (2, %d)", target, addr, a.spareBase)
	}
	s.Run()
	if completions != 1 || r.Failed {
		t.Errorf("failover spare write did not succeed: %+v", r)
	}
	// Reads on the dead disk surface FaultDiskFail through the request.
	if err := a.ReadChunkReq(0, grid.Coord{Row: 0, Col: 1}, r); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if completions != 2 || r.Fault != FaultDiskFail {
		t.Errorf("read on dead disk = %+v, want disk-fail", r)
	}
	if a.TotalStats().Failed == 0 {
		t.Error("TotalStats should count failed requests")
	}
}
