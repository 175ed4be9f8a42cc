// Package disk models a disk array as discrete-event entities: each
// disk serves one request at a time from a FIFO queue under a pluggable
// service-time model. It replaces DiskSim in the paper's methodology;
// the paper's configuration (a flat 10 ms disk access time) is the
// FixedLatency model, and a positional seek/rotation/transfer model is
// provided for realism ablations.
package disk

import (
	"math"
	"math/rand"

	"fbf/internal/obs"
	"fbf/internal/sim"
)

// Model computes the service time of one request given the head's
// previous chunk address and the request's address and size in bytes.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// ServiceTime returns how long the disk mechanism is busy with the
	// request, excluding queueing. prevAddr is the chunk address where
	// the head currently rests; addr the requested chunk address.
	ServiceTime(prevAddr, addr int64, sizeBytes int, write bool) sim.Time
}

// FixedLatency serves every request in a constant time, the
// configuration the paper's evaluation uses (10 ms per disk access).
type FixedLatency struct {
	Read  sim.Time
	Write sim.Time
}

// PaperFixedLatency returns the paper's disk service model: 10 ms per
// access, reads and writes alike.
func PaperFixedLatency() FixedLatency {
	return FixedLatency{Read: 10 * sim.Millisecond, Write: 10 * sim.Millisecond}
}

// Name implements Model.
func (m FixedLatency) Name() string { return "fixed" }

// ServiceTime implements Model.
func (m FixedLatency) ServiceTime(_, _ int64, _ int, write bool) sim.Time {
	if write {
		return m.Write
	}
	return m.Read
}

// Positional approximates a mechanical disk: a square-root seek curve
// over the address distance, a uniformly distributed rotational latency
// and a linear transfer time. The rotational term uses a deterministic
// per-disk RNG so runs remain reproducible.
type Positional struct {
	SeekMin     sim.Time // track-to-track seek
	SeekMax     sim.Time // full-stroke seek
	RPM         int      // spindle speed
	TransferBps int64    // sustained media rate, bytes/second
	Chunks      int64    // addressable chunk count (for seek scaling)

	rng *rand.Rand
}

// NewPositional returns a positional model resembling a 7200 RPM
// nearline drive, seeded deterministically.
func NewPositional(chunks int64, seed int64) *Positional {
	return &Positional{
		SeekMin:     sim.Millisecond / 2,
		SeekMax:     9 * sim.Millisecond,
		RPM:         7200,
		TransferBps: 150 << 20, // 150 MiB/s
		Chunks:      chunks,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Name implements Model.
func (m *Positional) Name() string { return "positional" }

// ServiceTime implements Model.
func (m *Positional) ServiceTime(prevAddr, addr int64, sizeBytes int, _ bool) sim.Time {
	var seek sim.Time
	if dist := addr - prevAddr; dist != 0 {
		if dist < 0 {
			dist = -dist
		}
		span := m.Chunks
		if span < 1 {
			span = 1
		}
		frac := math.Sqrt(float64(dist) / float64(span))
		seek = m.SeekMin + sim.Time(frac*float64(m.SeekMax-m.SeekMin))
	}
	rotation := sim.Time(60 * float64(sim.Second) / float64(m.RPM))
	rotational := sim.Time(m.rng.Int63n(int64(rotation)))
	transfer := sim.Time(float64(sizeBytes) / float64(m.TransferBps) * float64(sim.Second))
	return seek + rotational + transfer
}

// Handler receives a request's completion without the closure
// allocation a Done func costs: an operation object that embeds its
// Request can set Handler to itself (a pointer-to-interface assignment
// allocates nothing) and be reused across submissions.
type Handler interface {
	OnComplete(r *Request, issued, completed sim.Time)
}

// Request is one disk I/O. At completion exactly one of Handler or Done
// fires (Handler wins when both are set) with the issue and completion
// times; it runs inside the simulation loop. Every request succeeds.
type Request struct {
	Addr    int64 // chunk-granularity address
	Size    int   // bytes
	Write   bool
	Done    func(issued, completed sim.Time)
	Handler Handler

	issued sim.Time
}

// finish dispatches the completion to Handler or Done.
func (r *Request) finish(issued, completed sim.Time) {
	if r.Handler != nil {
		r.Handler.OnComplete(r, issued, completed)
		return
	}
	r.Done(issued, completed)
}

// Stats aggregates a disk's served I/O.
type Stats struct {
	Reads     uint64
	Writes    uint64
	BusyTime  sim.Time
	QueueTime sim.Time
}

// Disk is one drive: a FIFO queue in front of a single server whose
// holding time comes from the Model.
type Disk struct {
	id    int
	sim   *sim.Simulator
	model Model
	queue []*Request
	busy  bool
	head  int64
	stats Stats

	// tr, when non-nil, receives one io span per served request and a
	// queue-occupancy counter on this disk's trace lane. Every
	// instrumented site guards on the nil check, so an untraced disk
	// does no extra work.
	tr    obs.Tracer
	track obs.Track

	// serving is the request in service; serviceStart stamps when its
	// media operation began. A disk serves one request at a time, so
	// completion is the prebound completeFn closure created once at
	// construction — the old per-request completion closure was one
	// allocation per I/O, millions per run.
	serving      *Request
	serviceStart sim.Time
	serviceDur   sim.Time
	completeFn   func()
}

// NewDisk creates a disk attached to the simulator.
func NewDisk(id int, s *sim.Simulator, model Model) *Disk {
	if model == nil {
		panic("disk: nil model")
	}
	d := &Disk{id: id, sim: s, model: model}
	d.completeFn = d.completeServing
	return d
}

// SetTracer attaches an event tracer to the disk's lane in the
// "disks" track group; safe only before traffic starts.
func (d *Disk) SetTracer(tr obs.Tracer) {
	d.tr = tr
	d.track = obs.Track{Group: obs.GroupDisks, ID: d.id}
}

// InFlight returns the number of requests on the disk: queued plus the
// one in service, if any.
func (d *Disk) InFlight() int {
	if d.busy {
		return len(d.queue) + 1
	}
	return len(d.queue)
}

// traceQueue emits the queue-occupancy counter sample. Callers hold
// d.tr != nil.
func (d *Disk) traceQueue() {
	d.tr.Emit(obs.Event{
		Name: "queue", Cat: obs.CatIO, Ph: obs.PhaseCounter,
		Track: d.track, TS: d.sim.Now(),
		Args: []obs.Arg{{Key: "depth", Val: int64(len(d.queue))}},
	})
}

// Stats returns the served-I/O counters.
func (d *Disk) Stats() Stats { return d.stats }

// Submit enqueues a request. Completion is signalled through r.Done.
func (d *Disk) Submit(r *Request) {
	if r == nil || (r.Done == nil && r.Handler == nil) {
		panic("disk: request without completion callback")
	}
	r.issued = d.sim.Now()
	d.queue = append(d.queue, r)
	if d.tr != nil {
		d.traceQueue()
	}
	if !d.busy {
		d.startNext()
	}
}

func (d *Disk) startNext() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	d.busy = true
	r := d.queue[0]
	d.queue = append(d.queue[:0], d.queue[1:]...)
	d.stats.QueueTime += d.sim.Now() - r.issued
	service := d.model.ServiceTime(d.head, r.Addr, r.Size, r.Write)
	d.stats.BusyTime += service
	d.head = r.Addr
	if d.tr != nil {
		d.traceQueue()
	}
	d.serving = r
	d.serviceStart = d.sim.Now()
	d.serviceDur = service
	d.sim.Schedule(service, d.completeFn)
}

// completeServing finishes the in-service request. It is the body of
// the prebound completeFn; the request and its service window live in
// fields rather than a per-request closure.
func (d *Disk) completeServing() {
	r := d.serving
	start, service := d.serviceStart, d.serviceDur
	d.serving = nil
	if r.Write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	if d.tr != nil {
		name := "read"
		if r.Write {
			name = "write"
		}
		d.tr.Emit(obs.Event{
			Name: name, Cat: obs.CatIO, Ph: obs.PhaseSpan,
			Track: d.track, TS: start, Dur: service,
			Args: []obs.Arg{{Key: "addr", Val: r.Addr}},
		})
	}
	done := d.sim.Now()
	r.finish(r.issued, done)
	d.startNext()
}
