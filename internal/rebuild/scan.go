package rebuild

import (
	"fmt"
	"sort"

	"fbf/internal/chunk"
	"fbf/internal/grid"
	"fbf/internal/lanes"
	"fbf/internal/store"
)

// ScanStore assesses a store against its manifest: every in-geometry
// address is checked for presence and validity (Stat's header check by
// default; full payload CRC reads with scrub) and grouped into
// per-stripe damage.
//
// Each disk is scanned on its own (scanDisk), on lanes.Each with up to
// store.StripeDepth(b) lanes: disks are handed out in ascending order,
// each lane keeps its own scrub buffer, and the report merges the disks'
// findings in disk order, so it is the same at any depth. At depth 1 the
// scan returns at the first error with no call after it; at any depth no
// disk is handed out once one has failed, and the error returned is the
// lowest failing disk's.
func ScanStore(b store.Backend, m store.ArrayManifest, scrub bool) (*DamageReport, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	scans := make([]diskScan, m.Disks)
	k := store.StripeDepth(b)
	bufs := make([]chunk.Chunk, max(k, 1))
	err := lanes.Each(k, m.Disks, func(lane, disk int) error {
		if scrub && bufs[lane] == nil {
			bufs[lane] = chunk.New(m.ChunkSize)
		}
		var err error
		scans[disk], err = scanDisk(b, m, disk, scrub, bufs[lane])
		return err
	})
	if err != nil {
		return nil, err
	}

	report := &DamageReport{}
	perStripe := make(map[int]*StripeDamage)
	for disk, sc := range scans {
		for _, c := range sc.damage {
			d := perStripe[c.stripe]
			if d == nil {
				d = &StripeDamage{Stripe: c.stripe}
				perStripe[c.stripe] = d
			}
			cell := grid.Coord{Row: c.row, Col: disk}
			if c.corrupt {
				d.Corrupt = append(d.Corrupt, cell)
				report.CorruptChunks++
			} else {
				d.Missing = append(d.Missing, cell)
				report.MissingChunks++
			}
		}
		if sc.present == 0 && m.Stripes*m.Rows > 0 {
			report.FailedDisks = append(report.FailedDisks, disk)
		}
		// Each disk's extras ascend and Addr orders by disk first, so
		// the concatenation ascends too.
		report.ExtraChunks = append(report.ExtraChunks, sc.extras...)
	}
	for _, d := range perStripe {
		sort.Slice(d.Missing, func(i, j int) bool { return d.Missing[i].Less(d.Missing[j]) })
		sort.Slice(d.Corrupt, func(i, j int) bool { return d.Corrupt[i].Less(d.Corrupt[j]) })
		report.Stripes = append(report.Stripes, *d)
	}
	sort.Slice(report.Stripes, func(i, j int) bool { return report.Stripes[i].Stripe < report.Stripes[j].Stripe })
	return report, nil
}

// diskScan is what scanning one disk found: its unreadable cells in
// (stripe, row) order, how many chunks are readable and the addresses it
// lists outside the geometry.
type diskScan struct {
	damage  []cellDamage
	present int
	extras  []store.Addr
}

// cellDamage is one unreadable cell of the scanned disk.
type cellDamage struct {
	stripe, row int
	corrupt     bool
}

// scanDisk checks every in-geometry address of one disk. It walks List's
// result beside the (stripe, row) loop, which List's ascending (Stripe,
// Chunk) order allows, so a listed address is found without a lookup; a
// List that breaks the order (or repeats an address, or names another
// disk) is an error rather than chunks reported missing. Every listed
// in-geometry chunk is stated, or read into buf under scrub, in
// ascending order, and the scan stops at the first error.
func scanDisk(b store.Backend, m store.ArrayManifest, disk int, scrub bool, buf chunk.Chunk) (sc diskScan, err error) {
	addrs, err := b.List(disk)
	if err != nil {
		return sc, err
	}
	inGeometry := func(a store.Addr) bool {
		return a.Stripe >= 0 && a.Stripe < m.Stripes && a.Chunk >= 0 && a.Chunk < m.Rows
	}
	for i, a := range addrs {
		switch {
		case a.Disk != disk:
			return sc, fmt.Errorf("rebuild: disk %d lists %v, an address on another disk", disk, a)
		case i > 0 && !addrs[i-1].Less(a):
			return sc, fmt.Errorf("rebuild: disk %d lists %v after %v, not in ascending (stripe, chunk) order", disk, a, addrs[i-1])
		case !inGeometry(a):
			sc.extras = append(sc.extras, a)
		}
	}
	i := 0 // addrs[:i] are matched or out of geometry
	for stripe := 0; stripe < m.Stripes; stripe++ {
		for row := 0; row < m.Rows; row++ {
			for i < len(addrs) && !inGeometry(addrs[i]) {
				i++
			}
			if i == len(addrs) || addrs[i].Stripe != stripe || addrs[i].Chunk != row {
				sc.damage = append(sc.damage, cellDamage{stripe: stripe, row: row})
				continue
			}
			a := addrs[i]
			i++
			var size int
			if scrub {
				size, err = b.ReadChunk(a, buf)
			} else {
				var info store.Info
				info, err = b.Stat(a)
				size = info.Size
			}
			switch {
			case store.IsCorrupt(err):
				sc.damage = append(sc.damage, cellDamage{stripe: stripe, row: row, corrupt: true})
			case store.IsNotFound(err):
				sc.damage = append(sc.damage, cellDamage{stripe: stripe, row: row})
			case err != nil:
				return sc, err
			case size != m.ChunkSize:
				// Valid codec, wrong array: a chunk of another store's
				// geometry cannot serve reads here.
				sc.damage = append(sc.damage, cellDamage{stripe: stripe, row: row, corrupt: true})
			default:
				sc.present++
			}
		}
	}
	return sc, nil
}
