package rebuild

import (
	"fmt"

	"fbf/internal/disk"
	"fbf/internal/grid"
	"fbf/internal/sim"
)

// fetchOp is one miss fetch in flight: the chunk being read and the disk
// request itself. Ops are recycled through the worker's freelist with
// the request's completion bound once at creation, so a steady-state
// fetch allocates nothing. A chain's ops all complete before its barrier
// fires, so completion always reports to the owning worker's current
// chain.
type fetchOp struct {
	w      *worker
	stripe int
	cell   grid.Coord
	req    disk.Request // Handler == the op itself: no completion closure
	next   *fetchOp     // freelist / pending-FIFO link (one at a time)
}

// fetchOpSlab is how many ops one freelist refill allocates at once.
const fetchOpSlab = 8

// getFetchOp takes an op from the freelist, refilling it a slab at a
// time on exhaustion.
func (w *worker) getFetchOp() *fetchOp {
	if w.freeOps == nil {
		slab := make([]fetchOp, fetchOpSlab)
		for i := range slab {
			o := &slab[i]
			o.w = w
			o.req.Handler = o
			o.next = w.freeOps
			w.freeOps = o
		}
	}
	o := w.freeOps
	w.freeOps = o.next
	o.next = nil
	return o
}

// putFetchOp returns a retired op to the freelist.
func (w *worker) putFetchOp(o *fetchOp) {
	o.next = w.freeOps
	w.freeOps = o
}

// pushPending appends the op to the worker's issue FIFO. Each miss
// schedules the worker's prebound issueNextFn at its lookup-completion
// time; a chain's lookup times strictly increase and the FIFO drains
// before its barrier, so the k-th firing issues the k-th pushed op —
// exactly the pairing the old per-miss closures encoded, without the
// per-miss allocation.
func (w *worker) pushPending(o *fetchOp) {
	if w.pendTail != nil {
		w.pendTail.next = o
	} else {
		w.pendHead = o
	}
	w.pendTail = o
}

// issueNext pops the oldest pending op and submits its read.
func (w *worker) issueNext() {
	o := w.pendHead
	w.pendHead = o.next
	if w.pendHead == nil {
		w.pendTail = nil
	}
	o.next = nil
	if err := w.engine.array.ReadChunkReq(o.stripe, o.cell, &o.req); err != nil {
		panic(fmt.Sprintf("rebuild: read failed: %v", err))
	}
}

// OnComplete implements disk.Handler: the read has landed, so its
// response time is charged and the op retires from the chain.
func (o *fetchOp) OnComplete(_ *disk.Request, issued, completed sim.Time) {
	w := o.w
	e := w.engine
	e.sumResponse += e.cfg.CacheAccess + (completed - issued)
	w.putFetchOp(o)
	w.chainDone()
}
