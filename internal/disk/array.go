package disk

import (
	"fmt"

	"fbf/internal/grid"
	"fbf/internal/obs"
	"fbf/internal/sim"
)

// Array is a set of disks addressed by (stripe, row, column): column c
// is disk c, and chunk (stripe, row) of a disk lives at chunk address
// stripe*rowsPerStripe + row. Recovered chunks are written to a spare
// region appended past the data region of the same disk, matching the
// paper's repair model (spare sectors/blocks on the disk rather than a
// replacement drive).
type Array struct {
	sim        *sim.Simulator
	disks      []*Disk
	rows       int // chunk rows per stripe
	stripes    int // stripes on the array
	chunkSize  int // bytes
	spareBase  int64
	spareAlloc []int64 // next spare slot per disk
}

// ArrayConfig sizes an Array.
type ArrayConfig struct {
	Disks     int
	Rows      int // rows per stripe (code.Rows())
	Stripes   int
	ChunkSize int
	// ModelFor returns the service model of disk i. When nil the paper's
	// fixed 10 ms model is used for every disk.
	ModelFor func(i int) Model
	// Tracer, when non-nil, is attached to every disk: each serves its
	// requests as io spans on its own trace lane plus a queue-occupancy
	// counter. Nil keeps the disks untraced at zero cost.
	Tracer obs.Tracer
}

// NewArray builds the array and its disks.
func NewArray(s *sim.Simulator, cfg ArrayConfig) (*Array, error) {
	if cfg.Disks <= 0 || cfg.Rows <= 0 || cfg.Stripes <= 0 || cfg.ChunkSize <= 0 {
		return nil, fmt.Errorf("disk: invalid array config %+v", cfg)
	}
	a := &Array{
		sim:        s,
		rows:       cfg.Rows,
		stripes:    cfg.Stripes,
		chunkSize:  cfg.ChunkSize,
		spareBase:  int64(cfg.Rows) * int64(cfg.Stripes),
		spareAlloc: make([]int64, cfg.Disks),
	}
	for i := 0; i < cfg.Disks; i++ {
		model := Model(PaperFixedLatency())
		if cfg.ModelFor != nil {
			model = cfg.ModelFor(i)
		}
		d := NewDisk(i, s, model)
		if cfg.Tracer != nil {
			d.SetTracer(cfg.Tracer)
		}
		a.disks = append(a.disks, d)
	}
	return a, nil
}

// Disks returns the number of disks.
func (a *Array) Disks() int { return len(a.disks) }

// Disk returns disk i.
func (a *Array) Disk(i int) *Disk { return a.disks[i] }

// chunkAddr maps (stripe, row) to the per-disk chunk address.
func (a *Array) chunkAddr(stripe, row int) int64 {
	return int64(stripe)*int64(a.rows) + int64(row)
}

// ReadChunk issues a read of the chunk at (stripe, cell) and calls done
// with the issue and completion times.
func (a *Array) ReadChunk(stripe int, cell grid.Coord, done func(issued, completed sim.Time)) error {
	if err := a.check(stripe, cell); err != nil {
		return err
	}
	a.disks[cell.Col].Submit(&Request{
		Addr: a.chunkAddr(stripe, cell.Row),
		Size: a.chunkSize,
		Done: done,
	})
	return nil
}

// ReadChunkReq submits a read of (stripe, cell) through a caller-owned
// Request. r.Done or r.Handler must already be set; Addr/Size/Write are
// filled here, so one Request object (typically embedded in a pooled
// operation with a prebound completion) can be reused across any number
// of reads without allocating.
func (a *Array) ReadChunkReq(stripe int, cell grid.Coord, r *Request) error {
	if err := a.check(stripe, cell); err != nil {
		return err
	}
	r.Addr = a.chunkAddr(stripe, cell.Row)
	r.Size = a.chunkSize
	r.Write = false
	a.disks[cell.Col].Submit(r)
	return nil
}

// WriteSpare writes one recovered chunk into the spare region of the
// given disk and calls done at completion.
func (a *Array) WriteSpare(diskID int, done func(issued, completed sim.Time)) error {
	return a.WriteSpareReq(diskID, &Request{Done: done})
}

// WriteSpareReq writes one recovered chunk into the next slot of the
// given disk's spare region through a caller-owned Request; the same
// reuse contract as ReadChunkReq applies.
func (a *Array) WriteSpareReq(diskID int, r *Request) error {
	if diskID < 0 || diskID >= len(a.disks) {
		return fmt.Errorf("disk: spare write to invalid disk %d", diskID)
	}
	r.Addr = a.spareBase + a.spareAlloc[diskID]
	a.spareAlloc[diskID]++
	r.Size = a.chunkSize
	r.Write = true
	a.disks[diskID].Submit(r)
	return nil
}

// TotalStats sums the per-disk statistics.
func (a *Array) TotalStats() Stats {
	var total Stats
	for _, d := range a.disks {
		s := d.Stats()
		total.Reads += s.Reads
		total.Writes += s.Writes
		total.BusyTime += s.BusyTime
		total.QueueTime += s.QueueTime
	}
	return total
}

func (a *Array) check(stripe int, cell grid.Coord) error {
	if stripe < 0 || stripe >= a.stripes {
		return fmt.Errorf("disk: stripe %d out of range [0,%d)", stripe, a.stripes)
	}
	if cell.Col < 0 || cell.Col >= len(a.disks) {
		return fmt.Errorf("disk: column %d out of range [0,%d)", cell.Col, len(a.disks))
	}
	if cell.Row < 0 || cell.Row >= a.rows {
		return fmt.Errorf("disk: row %d out of range [0,%d)", cell.Row, a.rows)
	}
	return nil
}
