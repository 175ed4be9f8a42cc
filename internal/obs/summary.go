package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"fbf/internal/sim"
)

// Event schema: the categories and names the instrumented engines emit.
// DESIGN.md §10 documents the args of each. Keep these stable — traces
// are parsed by name.
const (
	CatGroup  = "group"  // span "group": one error group's repair
	CatChunk  = "chunk"  // span "repair": one lost chunk's chain replay
	CatScheme = "scheme" // span "scheme-gen": recovery-scheme generation
	CatCache  = "cache"  // instants "hit", "miss", "evict", "invalidate", "demote"
	CatIO     = "io"     // spans "read"/"write" and counter "queue" on disk lanes
	CatXOR    = "xor"    // span "xor": chain XOR compute
	CatApp    = "app"    // instants "hit", "miss" of the foreground workload
)

// DiskUtil is one disk lane's time-weighted load in a Summary.
type DiskUtil struct {
	Disk        int
	Busy        sim.Time // summed io span time
	Utilization float64  // Busy / Makespan
	PeakQueue   int64    // max of the "queue" counter
	Reads       int      // read spans
	Writes      int      // write spans
}

// NameCount is one (category, name) event tally.
type NameCount struct {
	Cat   string
	Name  string
	Count int
}

// Summary is the per-phase breakdown of one trace: where simulated time
// went (scheme generation, disk reads, XOR compute, spare writes),
// how evenly the disks carried the load, and how often each event
// fired.
type Summary struct {
	Events   int
	Makespan sim.Time // latest event end

	// Summed simulated span time per phase. Disk phases overlap across
	// disks and workers, so these exceed Makespan on parallel runs —
	// they are resource-time, not wall-time.
	SchemeGen sim.Time
	Read      sim.Time
	Write     sim.Time
	XOR       sim.Time

	Groups int // error groups repaired
	Chunks int // lost chunks repaired

	Disks  []DiskUtil  // per disk lane, ordered by id
	Counts []NameCount // instant tallies, ordered by (cat, name)
}

// PeakQueue returns the maximum queue occupancy across all disks.
func (s *Summary) PeakQueue() int64 {
	var peak int64
	for _, d := range s.Disks {
		if d.PeakQueue > peak {
			peak = d.PeakQueue
		}
	}
	return peak
}

// MeanUtilization returns the mean per-disk utilization.
func (s *Summary) MeanUtilization() float64 {
	if len(s.Disks) == 0 {
		return 0
	}
	var sum float64
	for _, d := range s.Disks {
		sum += d.Utilization
	}
	return sum / float64(len(s.Disks))
}

// Summarize computes the per-phase breakdown of an event stream.
func Summarize(events []Event) *Summary {
	s := &Summary{Events: len(events)}
	disks := map[int]*DiskUtil{}
	counts := map[[2]string]int{}
	for _, e := range events {
		if end := e.TS + e.Dur; end > s.Makespan {
			s.Makespan = end
		}
		switch e.Ph {
		case PhaseSpan:
			switch e.Cat {
			case CatScheme:
				s.SchemeGen += e.Dur
			case CatXOR:
				s.XOR += e.Dur
			case CatGroup:
				s.Groups++
			case CatChunk:
				s.Chunks++
			case CatIO:
				d, ok := disks[e.Track.ID]
				if !ok {
					d = &DiskUtil{Disk: e.Track.ID}
					disks[e.Track.ID] = d
				}
				d.Busy += e.Dur
				switch e.Name {
				case "write":
					s.Write += e.Dur
					d.Writes++
				default:
					s.Read += e.Dur
					d.Reads++
				}
			}
		case PhaseInstant:
			counts[[2]string{e.Cat, e.Name}]++
		case PhaseCounter:
			if e.Cat == CatIO && e.Name == "queue" {
				d, ok := disks[e.Track.ID]
				if !ok {
					d = &DiskUtil{Disk: e.Track.ID}
					disks[e.Track.ID] = d
				}
				for _, a := range e.Args {
					if a.Key == "depth" && a.Val > d.PeakQueue {
						d.PeakQueue = a.Val
					}
				}
			}
		}
	}
	for _, d := range disks {
		if s.Makespan > 0 {
			d.Utilization = float64(d.Busy) / float64(s.Makespan)
		}
		s.Disks = append(s.Disks, *d)
	}
	sort.Slice(s.Disks, func(i, j int) bool { return s.Disks[i].Disk < s.Disks[j].Disk })
	for k, n := range counts {
		s.Counts = append(s.Counts, NameCount{Cat: k[0], Name: k[1], Count: n})
	}
	sort.Slice(s.Counts, func(i, j int) bool {
		if s.Counts[i].Cat != s.Counts[j].Cat {
			return s.Counts[i].Cat < s.Counts[j].Cat
		}
		return s.Counts[i].Name < s.Counts[j].Name
	})
	return s
}

// RenderSummary prints the breakdown as an aligned text report (the
// fbftrace default output; EXPERIMENTS.md documents the fields).
func RenderSummary(w io.Writer, s *Summary) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace: %d events, makespan %v, %d groups, %d chunks repaired\n",
		s.Events, s.Makespan, s.Groups, s.Chunks)
	fmt.Fprintf(bw, "phase time (resource-time, overlaps across disks/workers):\n")
	fmt.Fprintf(bw, "  scheme-gen %12v\n", s.SchemeGen)
	fmt.Fprintf(bw, "  read       %12v\n", s.Read)
	fmt.Fprintf(bw, "  xor        %12v\n", s.XOR)
	fmt.Fprintf(bw, "  write      %12v\n", s.Write)
	if len(s.Disks) > 0 {
		fmt.Fprintf(bw, "disk utilization (mean %.3f, peak queue %d):\n", s.MeanUtilization(), s.PeakQueue())
		fmt.Fprintf(bw, "  %-6s %12s %7s %7s %7s %6s\n", "disk", "busy", "util", "reads", "writes", "peakq")
		for _, d := range s.Disks {
			fmt.Fprintf(bw, "  %-6d %12v %7.3f %7d %7d %6d\n",
				d.Disk, d.Busy, d.Utilization, d.Reads, d.Writes, d.PeakQueue)
		}
	}
	if len(s.Counts) > 0 {
		fmt.Fprintf(bw, "event counts:\n")
		for _, c := range s.Counts {
			fmt.Fprintf(bw, "  %-24s %8d\n", c.Cat+"/"+c.Name, c.Count)
		}
	}
	return bw.Flush()
}
