package disk

import (
	"testing"

	"fbf/internal/grid"
	"fbf/internal/sim"
)

func TestFixedLatencyModel(t *testing.T) {
	m := PaperFixedLatency()
	if m.Name() != "fixed" {
		t.Error("name wrong")
	}
	if m.ServiceTime(0, 100, 32768, false) != 10*sim.Millisecond {
		t.Error("read time wrong")
	}
	if m.ServiceTime(0, 100, 32768, true) != 10*sim.Millisecond {
		t.Error("write time wrong")
	}
}

func TestPositionalModel(t *testing.T) {
	m := NewPositional(1000, 1)
	if m.Name() != "positional" {
		t.Error("name wrong")
	}
	// Zero distance: no seek, still rotation + transfer.
	st := m.ServiceTime(50, 50, 32768, false)
	if st <= 0 {
		t.Error("service time must be positive")
	}
	// Larger distance costs at least the minimum seek more on average;
	// compare expectations over many samples to smooth rotation noise.
	var near, far sim.Time
	for i := 0; i < 200; i++ {
		near += m.ServiceTime(0, 1, 32768, false)
		far += m.ServiceTime(0, 999, 32768, false)
	}
	if far <= near {
		t.Errorf("far seeks (%v) should exceed near seeks (%v)", far, near)
	}
}

func TestDiskFIFOAndBusy(t *testing.T) {
	s := sim.New()
	d := NewDisk(0, s, FixedLatency{Read: 10 * sim.Millisecond, Write: 20 * sim.Millisecond})
	var completions []sim.Time
	for i := 0; i < 3; i++ {
		d.Submit(&Request{Addr: int64(i), Size: 1, Done: func(issued, completed sim.Time) {
			completions = append(completions, completed)
		}})
	}
	if d.InFlight() != 3 { // two queued, one in service
		t.Errorf("InFlight = %d", d.InFlight())
	}
	s.Run()
	want := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond}
	if len(completions) != 3 {
		t.Fatalf("completions = %v", completions)
	}
	for i := range want {
		if completions[i] != want[i] {
			t.Errorf("completion %d = %v, want %v", i, completions[i], want[i])
		}
	}
	st := d.Stats()
	if st.Reads != 3 || st.Writes != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.BusyTime != 30*sim.Millisecond {
		t.Errorf("BusyTime = %v", st.BusyTime)
	}
	if st.QueueTime != 30*sim.Millisecond { // 0 + 10 + 20
		t.Errorf("QueueTime = %v", st.QueueTime)
	}
}

func TestDiskWriteCounted(t *testing.T) {
	s := sim.New()
	d := NewDisk(0, s, PaperFixedLatency())
	done := false
	d.Submit(&Request{Addr: 0, Size: 1, Write: true, Done: func(_, _ sim.Time) { done = true }})
	s.Run()
	if !done || d.Stats().Writes != 1 {
		t.Error("write not completed/counted")
	}
}

func TestSubmitWithoutDonePanics(t *testing.T) {
	s := sim.New()
	d := NewDisk(0, s, PaperFixedLatency())
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	d.Submit(&Request{})
}

func TestNilModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewDisk(0, sim.New(), nil)
}

// distanceModel charges 1 ms plus 1 us per unit of address distance, so
// a reordering discipline would serve the batch below out of order.
type distanceModel struct{}

func (distanceModel) Name() string { return "distance" }
func (distanceModel) ServiceTime(prev, addr int64, _ int, _ bool) sim.Time {
	dist := addr - prev
	if dist < 0 {
		dist = -dist
	}
	return sim.Millisecond + sim.Time(dist)*sim.Microsecond
}

func TestFIFOServesArrivalOrder(t *testing.T) {
	s := sim.New()
	d := NewDisk(0, s, distanceModel{})
	d.head = 50
	var order []int64
	// Occupy the disk so the whole batch queues first.
	d.Submit(&Request{Addr: 50, Size: 1, Done: func(_, _ sim.Time) {}})
	want := []int64{90, 10, 60, 20}
	for _, a := range want {
		a := a
		d.Submit(&Request{Addr: a, Size: 1, Done: func(_, _ sim.Time) {
			order = append(order, a)
		}})
	}
	s.Run()
	if len(order) != len(want) {
		t.Fatalf("FIFO order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO order = %v", order)
		}
	}
}

func newTestArray(t *testing.T) (*sim.Simulator, *Array) {
	t.Helper()
	s := sim.New()
	a, err := NewArray(s, ArrayConfig{Disks: 4, Rows: 4, Stripes: 10, ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

func TestArrayBasics(t *testing.T) {
	s, a := newTestArray(t)
	if a.Disks() != 4 {
		t.Error("accessors wrong")
	}
	got := sim.Time(-1)
	err := a.ReadChunk(2, grid.Coord{Row: 1, Col: 3}, func(issued, completed sim.Time) {
		got = completed
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got != 10*sim.Millisecond {
		t.Errorf("read completed at %v", got)
	}
	if a.Disk(3).Stats().Reads != 1 {
		t.Error("read went to wrong disk")
	}
	if a.TotalStats().Reads != 1 {
		t.Error("TotalStats wrong")
	}
}

func TestArrayAddressing(t *testing.T) {
	_, a := newTestArray(t)
	if got := a.chunkAddr(2, 1); got != 9 {
		t.Errorf("chunkAddr(2,1) = %d, want 9", got)
	}
}

func TestArraySpareWritesBeyondData(t *testing.T) {
	s, a := newTestArray(t)
	if err := a.WriteSpare(1, func(_, _ sim.Time) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteSpare(1, func(_, _ sim.Time) {}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if a.Disk(1).Stats().Writes != 2 {
		t.Error("spare writes not served")
	}
	// Spare area starts past the data region: rows*stripes = 40.
	if a.spareBase != 40 || a.spareAlloc[1] != 2 {
		t.Errorf("spareBase=%d alloc=%v", a.spareBase, a.spareAlloc)
	}
}

func TestArrayErrors(t *testing.T) {
	_, a := newTestArray(t)
	noop := func(_, _ sim.Time) {}
	if err := a.ReadChunk(-1, grid.Coord{}, noop); err == nil {
		t.Error("negative stripe accepted")
	}
	if err := a.ReadChunk(10, grid.Coord{}, noop); err == nil {
		t.Error("stripe out of range accepted")
	}
	if err := a.ReadChunk(0, grid.Coord{Row: 9, Col: 0}, noop); err == nil {
		t.Error("row out of range accepted")
	}
	if err := a.ReadChunk(0, grid.Coord{Row: 0, Col: 9}, noop); err == nil {
		t.Error("column out of range accepted")
	}
	if err := a.WriteSpare(-1, noop); err == nil {
		t.Error("bad spare disk accepted")
	}
	if err := a.ReadChunkReq(0, grid.Coord{Row: 0, Col: -1}, &Request{Done: noop}); err == nil {
		t.Error("negative column accepted")
	}
	if err := a.ReadChunkReq(10, grid.Coord{}, &Request{Done: noop}); err == nil {
		t.Error("stripe out of range accepted by ReadChunkReq")
	}
	if err := a.WriteSpareReq(4, &Request{Done: noop}); err == nil {
		t.Error("bad spare-write disk accepted")
	}
	if _, err := NewArray(sim.New(), ArrayConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestArrayContention(t *testing.T) {
	// Two reads to the same disk serialize; reads to distinct disks run
	// in parallel.
	s, a := newTestArray(t)
	var sameDisk, diffDisk []sim.Time
	collect := func(dst *[]sim.Time) func(sim.Time, sim.Time) {
		return func(_, completed sim.Time) { *dst = append(*dst, completed) }
	}
	a.ReadChunk(0, grid.Coord{Row: 0, Col: 0}, collect(&sameDisk))
	a.ReadChunk(0, grid.Coord{Row: 1, Col: 0}, collect(&sameDisk))
	a.ReadChunk(0, grid.Coord{Row: 0, Col: 1}, collect(&diffDisk))
	a.ReadChunk(0, grid.Coord{Row: 0, Col: 2}, collect(&diffDisk))
	s.Run()
	if sameDisk[0] != 10*sim.Millisecond || sameDisk[1] != 20*sim.Millisecond {
		t.Errorf("same-disk completions %v", sameDisk)
	}
	if diffDisk[0] != 10*sim.Millisecond || diffDisk[1] != 10*sim.Millisecond {
		t.Errorf("cross-disk completions %v", diffDisk)
	}
}

// TestRequestReuse pins the reusable-Request contract: one Request
// object cycles through reads and spare writes via the Req APIs, and
// each submission fills in its own address and direction.
func TestRequestReuse(t *testing.T) {
	s := sim.New()
	a, err := NewArray(s, ArrayConfig{Disks: 2, Rows: 4, Stripes: 4, ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	completions := 0
	r := &Request{}
	r.Done = func(issued, completed sim.Time) { completions++ }
	for i := 0; i < 3; i++ {
		if err := a.ReadChunkReq(i, grid.Coord{Row: i, Col: 1}, r); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	if err := a.WriteSpareReq(0, r); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if r.Addr != 16 || !r.Write {
		t.Fatalf("spare write went to addr %d (write %v), want the first spare slot 16", r.Addr, r.Write)
	}
	if err := a.ReadChunkReq(3, grid.Coord{Row: 3, Col: 0}, r); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if r.Addr != 15 || r.Write {
		t.Fatalf("read after the spare write went to addr %d (write %v), want 15", r.Addr, r.Write)
	}
	if completions != 5 {
		t.Fatalf("completions = %d, want 5", completions)
	}
	if st := a.Disk(1).Stats(); st.Reads != 3 {
		t.Fatalf("disk 1 reads = %d, want 3", st.Reads)
	}
	if st := a.Disk(0).Stats(); st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("disk 0 stats = %+v, want 1 read and 1 write", st)
	}
}

// TestDiskSteadyStateAllocs pins the disk layer's zero-allocation
// contract: submitting and serving a request through a reused Request
// allocates nothing once the queue slice has grown (the old completion
// path closed over each request).
func TestDiskSteadyStateAllocs(t *testing.T) {
	s := sim.New()
	d := NewDisk(0, s, PaperFixedLatency())
	r := &Request{Size: 512}
	r.Done = func(issued, completed sim.Time) {}
	// Warm the queue and event-heap backing arrays.
	for i := 0; i < 8; i++ {
		d.Submit(r)
		s.Run()
	}
	allocs := testing.AllocsPerRun(100, func() {
		d.Submit(r)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("submit+serve allocates %.1f times per request, want 0", allocs)
	}
}
