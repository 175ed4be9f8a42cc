// service.go promotes the simulator's data plane into a storage engine:
// rebuild.Service plans each damaged stripe with the simulator's scheme
// machinery (core's chain selection and its GF(2) decoder fallback), runs
// the escalate-and-replan ladder (core.RegenerateScheme) against real
// bytes in a store.Backend, and checks every recovered chunk before it is
// written back: parity chains of the repaired stripe must XOR to zero.
// Every stripe is evaluated in one read-once pass (decodePass), which
// passFor alone builds, once per lost set: each source is read from the
// backend once, in store-address order, and folded into every accumulator
// whose chain holds it. A plan of single parity chains (the paper's
// partial stripe errors) sums its repair chains and the check chains
// picked with it (checkChains); a plan that needs the GF(2) decoder
// (whole-disk damage) sums the stripe's chain syndromes and decodes on
// them. Either way the stripe passes its test before its first write.
// FBF's byte cache stays in the simulator, where the paper puts it: a
// stripe here holds every source's sum at once, so no chunk is read
// twice. On a backend that states a stripe depth, stripes are evaluated
// ahead of their turn on lane goroutines (repairInFlight, on
// internal/lanes) and still written back one at a time, in repair order.
package rebuild

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/gf2"
	"fbf/internal/grid"
	"fbf/internal/lanes"
	"fbf/internal/store"
	"fbf/internal/telemetry"
)

// Service priority orders: which damaged stripes are repaired first.
const (
	// PrioritySequential repairs stripes in ascending index order — the
	// mdadm-style default.
	PrioritySequential = "sequential"
	// PriorityVulnerable repairs the stripes with the most lost chunks
	// first, shrinking the window in which a further failure causes
	// data loss.
	PriorityVulnerable = "vulnerable"
)

// Priorities lists the valid Service priority orders.
func Priorities() []string { return []string{PrioritySequential, PriorityVulnerable} }

// ServiceConfig parameterizes one storage-engine rebuild.
type ServiceConfig struct {
	Backend  store.Backend
	Manifest store.ArrayManifest

	Strategy core.Strategy // chain-selection strategy

	// Deprecated: ignored. Every stripe reads each source once, so the
	// engine keeps no byte cache; the simulator's Config.Policy is the
	// paper's cache.
	Policy string
	// Deprecated: ignored, as Policy.
	CacheChunks int

	// CheckOnly scans and reports damage without planning or writing —
	// `fbfctl rebuild -o check-only`.
	CheckOnly bool
	// DryRun scans and plans the full rebuild (schemes included) but
	// performs no reads of chunk payloads and no writes.
	DryRun bool
	// Scrub makes the damage scan read and CRC-check every payload
	// instead of trusting the cheap header Stat, catching silent
	// payload bit-rot at scan time.
	Scrub bool
	// NoVerify skips the check of recovered chunks before write-back: the
	// parity-chain zero test a stripe passes before its first write.
	NoVerify bool

	// Priority selects the stripe repair order (PrioritySequential
	// default, PriorityVulnerable).
	Priority string

	// JournalPath, when set, makes the rebuild crash-safe: the array's
	// geometry, a commit per chunk written back and a done record per
	// stripe finished append to a write-ahead journal at this path (no
	// plan is recorded), and a rerun with the same path resumes —
	// repairing the interrupted stripe's committed chunks again, through
	// the zero test like any other, before continuing. The journal is
	// removed on clean completion. Incompatible with CheckOnly and
	// DryRun, which perform no repairs to journal.
	JournalPath string

	// Stop, when non-nil, requests graceful shutdown: once the channel
	// is closed the service starts no further chunk write, finishes and
	// journals the writes in flight (up to the backend's write depth of
	// them: every stripe is written back as one group), discards the
	// stripes evaluated (store.StripeDepth of them at most) and not yet
	// written, syncs the journal, and returns with Interrupted set instead
	// of an error.
	Stop <-chan struct{}

	// Progress, when non-nil, is called after every repaired stripe —
	// the hook fbfctl turns into mdadm-style percent-complete lines.
	Progress func(Progress)

	// Metrics are the cells every repair event is counted on, live as
	// the repair advances (scrapeable mid-run when registered on a
	// telemetry.Registry). ServiceResult's counters are their change over
	// the run, so one set may be shared across passes. Nil counts on a
	// private set nothing exports.
	Metrics *telemetry.RebuildMetrics
}

// Progress reports how far a rebuild has advanced.
type Progress struct {
	Stripe        int // stripe just repaired
	StripesTotal  int // damaged stripes to repair
	StripesDone   int
	ChunksRebuilt int
}

// Percent returns completion as 0–100.
func (p Progress) Percent() int {
	if p.StripesTotal == 0 {
		return 100
	}
	return 100 * p.StripesDone / p.StripesTotal
}

func (c *ServiceConfig) defaults() {
	if c.Priority == "" {
		c.Priority = PrioritySequential
	}
	if c.Metrics == nil {
		c.Metrics = new(telemetry.RebuildMetrics)
	}
}

func (c *ServiceConfig) validate() error {
	if c.Backend == nil {
		return &ConfigError{Field: "Backend", Reason: "nil backend"}
	}
	if err := c.Manifest.Validate(); err != nil {
		return err
	}
	if c.CheckOnly && c.DryRun {
		return &ConfigError{Field: "CheckOnly", Reason: "check-only and dry-run are mutually exclusive"}
	}
	if c.JournalPath != "" && (c.CheckOnly || c.DryRun) {
		return &ConfigError{Field: "JournalPath", Reason: "journaling applies only to executing rebuilds (not check-only or dry-run)"}
	}
	switch c.Priority {
	case PrioritySequential, PriorityVulnerable:
	default:
		return &ConfigError{Field: "Priority", Reason: fmt.Sprintf("unknown priority %q (have %s)", c.Priority, strings.Join(Priorities(), ", "))}
	}
	return nil
}

// ResolveCode constructs the manifest's erasure code and checks the
// manifest dimensions against the code geometry, so a store initialized
// under one prime cannot be silently rebuilt under another.
func ResolveCode(m store.ArrayManifest) (*codes.Code, error) {
	code, err := codes.New(m.Code, m.P)
	if err != nil {
		return nil, err
	}
	if code.Disks() != m.Disks || code.Rows() != m.Rows {
		return nil, fmt.Errorf("rebuild: manifest says %dx%d (disks x rows), %v has %dx%d",
			m.Disks, m.Rows, code, code.Disks(), code.Rows())
	}
	return code, nil
}

// AddrOf maps a stripe-local cell to its store address: the cell's
// column is the disk, its row the chunk slot.
func AddrOf(stripe int, cell grid.Coord) store.Addr {
	return store.Addr{Disk: cell.Col, Stripe: stripe, Chunk: cell.Row}
}

// StripeSeed derives the data seed of one stripe from the store's base
// seed — the convention InitStore writes with and tests recompute
// ground truth from.
func StripeSeed(base int64, stripe int) int64 { return base + int64(stripe) }

// InitStore materializes a full, clean array into a backend: every
// stripe's data chunks are filled deterministically from seed, parity
// is encoded, and all chunks are written.
//
// The stripes run on lanes.Ahead with k = GOMAXPROCS and k slots, one
// stripe buffer set each: k−1 stripes are materialized on lanes while the
// calling goroutine writes the one before them. Materializing touches no
// backend, and every backend call stays on the calling goroutine: the
// stripes are written back one at a time, in stripe order, by writeBack
// at the backend's write depth, so a backend sees the same calls in the
// same order at any core count. After a failed write no further stripe
// is begun, and the lanes still materializing are joined before the error
// is returned, with no write after it.
func InitStore(b store.Backend, m store.ArrayManifest, seed int64) error {
	code, err := ResolveCode(m)
	if err != nil {
		return err
	}
	k := runtime.GOMAXPROCS(0)
	stripes := make([][]chunk.Chunk, k)
	begin := func(_, slot int) bool {
		if stripes[slot] == nil {
			stripes[slot] = code.NewStripe(m.ChunkSize)
		}
		return true
	}
	materialize := func(s, slot int) { code.MaterializeStripeInto(stripes[slot], StripeSeed(seed, s)) }
	write := func(s, slot int) error {
		addr := func(idx int) store.Addr { return AddrOf(s, code.CoordOf(idx)) }
		_, err := writeBack(b, nil, stripes[slot], addr, func(int) error { return nil })
		return err
	}
	return lanes.Ahead(k, k, m.Stripes, begin, materialize, write)
}

// StripeDamage lists one stripe's unreadable cells.
type StripeDamage struct {
	Stripe  int
	Missing []grid.Coord // absent chunks, sorted
	Corrupt []grid.Coord // present but failing validation, sorted
}

// Lost merges missing and corrupt cells in sorted order.
func (d *StripeDamage) Lost() []grid.Coord {
	out := make([]grid.Coord, 0, len(d.Missing)+len(d.Corrupt))
	out = append(out, d.Missing...)
	out = append(out, d.Corrupt...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// DamageReport is the outcome of a store scan.
type DamageReport struct {
	Stripes []StripeDamage // damaged stripes, ascending index

	MissingChunks int
	CorruptChunks int

	// FailedDisks lists disks with nothing present at all (the
	// killed-directory state).
	FailedDisks []int

	// ExtraChunks are addresses present in the store but outside the
	// manifest geometry — reported, never touched.
	ExtraChunks []store.Addr
}

// Clean reports an undamaged store.
func (r *DamageReport) Clean() bool { return r.MissingChunks == 0 && r.CorruptChunks == 0 }

// LostChunks returns the total unreadable chunks.
func (r *DamageReport) LostChunks() int { return r.MissingChunks + r.CorruptChunks }

// ServiceResult aggregates one service run. Its event counters are
// ServiceConfig.Metrics' change over the run (see tally).
type ServiceResult struct {
	Report *DamageReport

	StripesRepaired int
	ChunksRebuilt   int
	ChunksVerified  int // chunks written under the pre-write zero test; one whose repair chain is its only chain has nothing to be tested against and counts too
	ChunksDecoded   int // rebuilt via the GF(2) decoder fallback rather than a single chain

	// Planned work (populated by DryRun instead of the executed
	// counters above).
	PlannedChunks int // chunks a rebuild would write
	PlannedReads  int // distinct source chunks it would read

	DiskReads   uint64 // backend payload reads during repair: each planned source once
	VerifyReads uint64 // backend reads for the zero test alone: members of the checked chains no repair equation reads
	CacheHits   uint64 // always 0: the engine keeps no byte cache
	CacheMisses uint64 // every source read counts as a miss, so it equals DiskReads

	Escalations   int // surviving chunks found unreadable mid-chain
	Regenerations int // schemes regenerated after an escalation

	// Data loss: cells even the decoder could not solve.
	DataLoss bool
	Lost     []store.Addr

	BytesWritten int64

	// Crash-safety accounting (journaled runs only).
	Interrupted    bool  // a Stop request ended the run early; the journal is kept
	JournalOffset  int64 // journal append offset at exit (zero once the journal is removed)
	ResumedCommits int   // chunk commits replayed from a prior run's journal
}

// RunService scans the store and repairs every damaged stripe through
// the scheme/escalation machinery, checking recovered chunks (the
// parity-chain zero test) before writing them back. CheckOnly stops after
// the scan; DryRun stops after planning. Unsolvable cells are accounted as
// data loss, not an error — errors mean the engine itself could not
// proceed (I/O failures, bad configuration, a stripe that fails its
// check).
func RunService(cfg ServiceConfig) (*ServiceResult, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	code, err := ResolveCode(cfg.Manifest)
	if err != nil {
		return nil, err
	}
	var jn *Journal
	var jstate *JournalState
	if cfg.JournalPath != "" {
		jn, jstate, err = OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		if jstate.Complete {
			// The journal records a finished rebuild (a crash landed
			// between its done record and its removal); this run is a
			// new damage episode, not a resume.
			if err := jn.Reset(); err != nil {
				jn.Close()
				return nil, err
			}
			jstate = &JournalState{}
		}
		if sc := jstate.Scan; sc != nil {
			m := cfg.Manifest
			if sc.Disks != m.Disks || sc.Rows != m.Rows || sc.Stripes != m.Stripes || sc.ChunkSize != m.ChunkSize {
				jn.Close()
				return nil, fmt.Errorf("rebuild: journal %s was written for a %dx%d array of %d stripes (chunk %d bytes); manifest says %dx%d, %d stripes (chunk %d bytes)",
					cfg.JournalPath, sc.Disks, sc.Rows, sc.Stripes, sc.ChunkSize, m.Disks, m.Rows, m.Stripes, m.ChunkSize)
			}
		}
	}
	report, err := ScanStore(cfg.Backend, cfg.Manifest, cfg.Scrub)
	if err != nil {
		if jn != nil {
			jn.Close()
		}
		return nil, err
	}
	res := &ServiceResult{Report: report}
	cfg.Metrics.ScanMissing.Set(float64(report.MissingChunks))
	cfg.Metrics.ScanCorrupt.Set(float64(report.CorruptChunks))
	// The "latest pass" gauges describe this pass from its scan onward,
	// not the previous pass's outcome.
	cfg.Metrics.DataLossChunks.Set(0)
	cfg.Metrics.Percent.Set(float64(Progress{StripesTotal: len(report.Stripes)}.Percent()))
	if cfg.CheckOnly {
		return res, nil
	}
	if report.Clean() && (jn == nil || len(jstate.InFlight()) == 0) {
		// Nothing to repair and nothing in flight to repair again. A
		// leftover journal here recorded repairs that all landed; drop
		// it so the store tree matches a never-damaged one.
		if jn != nil {
			if err := jn.Remove(); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	s := newService(&cfg, code, res, jn)
	err = s.execute(jstate)
	tally(s.m, &s.base, res)
	res.DataLoss = len(res.Lost) > 0
	s.m.DataLossChunks.Set(float64(len(res.Lost)))
	if jn != nil {
		res.JournalOffset = jn.Offset()
		if err != nil || res.Interrupted {
			// Keep the journal: sync what we know so the next run
			// resumes from it. The sync error (if any) must not shadow
			// the run's own outcome.
			if serr := jn.Sync(); serr != nil && err == nil {
				err = serr
			}
			jn.Close()
		} else {
			// Clean completion: mark done, then remove — the done
			// record covers a crash inside this window.
			ferr := s.journaled(jn.AppendDone())
			if ferr == nil {
				ferr = jn.Sync()
			}
			if ferr == nil {
				ferr = jn.Remove()
				res.JournalOffset = 0
			} else {
				jn.Close()
			}
			if ferr != nil {
				return nil, ferr
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// newService assembles the run state of one repair pass over a
// defaulted, validated configuration.
func newService(cfg *ServiceConfig, code *codes.Code, res *ServiceResult, jn *Journal) *service {
	s := &service{cfg: cfg, m: cfg.Metrics, code: code, res: res, journal: jn,
		lost: make(map[grid.Coord]bool)}
	tally(s.m, &ServiceResult{}, &s.base)
	return s
}

// tally fills dst's counter fields with the cells' values less base's.
// The cells are cumulative — a daemon shares one set across passes — so
// a run tallies them into its base at entry (against a zero base) and
// reports their change since.
func tally(m *telemetry.RebuildMetrics, base, dst *ServiceResult) {
	dst.StripesRepaired = int(m.StripesDone.Value()) - base.StripesRepaired
	dst.ChunksRebuilt = int(m.ChunksRebuilt.Value()) - base.ChunksRebuilt
	dst.ChunksVerified = int(m.ChunksVerified.Value()) - base.ChunksVerified
	dst.ChunksDecoded = int(m.ChunksDecoded.Value()) - base.ChunksDecoded
	dst.DiskReads = m.DiskReads.Value() - base.DiskReads
	dst.VerifyReads = m.VerifyReads.Value() - base.VerifyReads
	dst.CacheMisses = dst.DiskReads
	dst.Escalations = int(m.Escalations.Value()) - base.Escalations
	dst.Regenerations = int(m.Regenerations.Value()) - base.Regenerations
	dst.BytesWritten = int64(m.BytesWritten.Value()) - base.BytesWritten
	dst.ResumedCommits = int(m.ResumedCommits.Value()) - base.ResumedCommits
}

// journaled counts a journal append that succeeded, so JournalRecords
// never exceeds the records on media.
func (s *service) journaled(err error) error {
	if err == nil {
		s.m.JournalRecords.Inc()
	}
	return err
}

// execute runs the repair pass: journaled commits of unfinished stripes
// put back as damage, stripe ordering, and the repair loop with
// graceful-stop checks between stripes.
func (s *service) execute(jstate *JournalState) error {
	cfg, report := s.cfg, s.res.Report
	if s.journal != nil {
		s.m.ResumedCommits.Add(uint64(len(jstate.Commits)))
		s.requeueResumed(jstate)
		m := cfg.Manifest
		if err := s.journaled(s.journal.AppendScan(JournalScan{
			Disks: m.Disks, Rows: m.Rows, Stripes: m.Stripes, ChunkSize: m.ChunkSize,
		})); err != nil {
			return err
		}
		if err := s.journal.Sync(); err != nil {
			return err
		}
	}
	order := append([]StripeDamage(nil), report.Stripes...)
	if cfg.Priority == PriorityVulnerable {
		sort.SliceStable(order, func(i, j int) bool {
			li, lj := len(order[i].Missing)+len(order[i].Corrupt), len(order[j].Missing)+len(order[j].Corrupt)
			if li != lj {
				return li > lj
			}
			return order[i].Stripe < order[j].Stripe
		})
	}
	s.m.StripesPlanned.Add(uint64(len(order)))
	k := store.StripeDepth(cfg.Backend)
	if cfg.DryRun {
		k = 1 // nothing to evaluate: the plain loop
	}
	return s.repairInFlight(order, k)
}

// finished counts a stripe repaired and reports the progress of a pass
// of total stripes.
func (s *service) finished(stripe, total int) {
	res := s.res
	s.m.StripesDone.Inc()
	tally(s.m, &s.base, res)
	s.m.Percent.Set(float64(Progress{StripesTotal: total, StripesDone: res.StripesRepaired}.Percent()))
	if s.cfg.Progress != nil {
		s.cfg.Progress(Progress{Stripe: stripe, StripesTotal: total, StripesDone: res.StripesRepaired, ChunksRebuilt: res.ChunksRebuilt})
	}
}

// stopRequested polls a graceful-shutdown channel; a nil channel never
// fires.
func stopRequested(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// stopped polls Stop, marking the run interrupted once it has fired, and
// reports whether the run is.
func (s *service) stopped() bool {
	if stopRequested(s.cfg.Stop) {
		s.res.Interrupted = true
	}
	return s.res.Interrupted
}

// requeueResumed puts back into the damage report, as corrupt, every cell
// a prior run journaled as committed in a stripe it never finished (once,
// if the scan lists it already): the repair loop then rebuilds it through
// the zero test like any other, so a commit is never judged in place. The
// commits go back, not a plan: a plan re-made after an escalation can
// list a survivor that reads again and erase a column too many (DESIGN §13).
func (s *service) requeueResumed(st *JournalState) {
	report := s.res.Report
	for a := range st.Commits {
		if st.Done[a.Stripe] {
			continue
		}
		cell := grid.Coord{Row: a.Chunk, Col: a.Disk}
		i, found := slices.BinarySearchFunc(report.Stripes, a.Stripe, func(d StripeDamage, stripe int) int { return cmp.Compare(d.Stripe, stripe) })
		if !found {
			report.Stripes = slices.Insert(report.Stripes, i, StripeDamage{Stripe: a.Stripe})
		}
		if d := &report.Stripes[i]; !slices.Contains(d.Missing, cell) && !slices.Contains(d.Corrupt, cell) {
			d.Corrupt = mergeCell(d.Corrupt, cell)
			report.CorruptChunks++
			s.m.ScanCorrupt.Set(float64(report.CorruptChunks))
			s.m.Percent.Set(0) // the pass has a stripe to repair, whatever the scan said
		}
	}
}

// service is the run state of one RunService call.
type service struct {
	cfg  *ServiceConfig
	m    *telemetry.RebuildMetrics // cfg.Metrics: the run's only event counters
	base ServiceResult             // m's tally at entry
	code *codes.Code
	res  *ServiceResult

	// lost holds the cells of the stripe under repair that were accounted
	// as data loss, so that loseCell books each once across re-plans. A
	// re-plan only grows the lost set, so no later plan rebuilds one.
	lost map[grid.Coord]bool

	// Scheme memoization: killed whole disks damage every stripe with the
	// same cell pattern, so the (expensive) chain selection and decoder
	// elimination are shared across stripes.
	schemes map[string]*schemePlan

	// journal is the write-ahead rebuild journal, nil for unjournaled
	// runs (the default path stays byte-identical to prior releases).
	journal *Journal
}

// schemePlan caches one lost-cell pattern's generated scheme and its
// unsolvable cells, with the read-once pass that evaluates it (passFor;
// nil in a dry run).
type schemePlan struct {
	lost     []grid.Coord // the pattern, sorted
	scheme   *core.Scheme
	unsolved []grid.Coord
	pass     *decodePass
}

// planFor generates (or recalls) the recovery scheme for one sorted
// lost-cell pattern, with its pass unless the run is dry. The synthetic
// PartialStripeError only carries stripe/cell bookkeeping into the
// Scheme; RegenerateScheme does not re-validate it, which is exactly what
// lets the service repair multi-disk and whole-column damage a plain
// partial-stripe error cannot describe.
func (s *service) planFor(stripe int, lost []grid.Coord) (*schemePlan, error) {
	key := make([]byte, 0, 128) // the cells' indexes, as varints
	for _, c := range lost {
		key = binary.AppendUvarint(key, uint64(s.code.CellIndex(c)))
	}
	if p, ok := s.schemes[string(key)]; ok {
		return p, nil
	}
	e := core.PartialStripeError{Stripe: stripe, Disk: lost[0].Col, Row: lost[0].Row, Size: len(lost)}
	scheme, unsolved, err := core.RegenerateScheme(s.code, e, lost, nil, s.cfg.Strategy)
	if err != nil {
		return nil, err
	}
	// A copy: the caller's slice grows in place when a cell escalates.
	p := &schemePlan{lost: append([]grid.Coord(nil), lost...), scheme: scheme, unsolved: unsolved}
	if !s.cfg.DryRun {
		p.pass = s.passFor(p)
	}
	if s.schemes == nil {
		s.schemes = make(map[string]*schemePlan)
	}
	s.schemes[string(key)] = p
	return p, nil
}

// beginStripe makes the stripe under repair the one whose lost cells
// loseCell books, and books plan's unsolved cells.
func (s *service) beginStripe(stripe int, plan *schemePlan) {
	clear(s.lost)
	for _, c := range plan.unsolved {
		s.loseCell(stripe, c)
	}
}

// replay writes back one stripe whose first evaluation is in f,
// escalating, re-planning and re-evaluating in f until it is repaired,
// and records it done.
func (s *service) replay(f *flight) error {
	// The escalation loop: a failed source read escalates that cell to
	// lost and regenerates the plan. The pass reads everything it needs
	// before the stripe's first write, so nothing of it has been written
	// and the new plan is simply the grown lost set's, evaluated again in
	// f on this goroutine. Every escalation grows that set, so the loop is
	// bounded by the stripe's cell count.
	for attempt := 0; attempt <= s.code.Layout().Cells(); attempt++ {
		esc, err := s.land(f)
		if err != nil {
			return err
		}
		if esc == nil {
			if s.res.Interrupted {
				// A stop landed mid-stripe: the writes in flight were
				// finished, but the stripe was not — no done record, so
				// the next run resumes right here.
				return nil
			}
			if s.journal != nil {
				if err := s.journaled(s.journal.AppendStripeDone(f.stripe)); err != nil {
					return err
				}
				if err := s.journal.Sync(); err != nil {
					return err
				}
			}
			return nil
		}
		// Escalate: the cell joins the lost set; regenerate (unsolved cells
		// are lost).
		s.m.Escalations.Inc()
		f.lost = mergeCell(f.lost, *esc)
		if f.plan, err = s.planFor(f.stripe, f.lost); err != nil {
			return err
		}
		s.m.Regenerations.Inc()
		for _, c := range f.plan.unsolved {
			s.loseCell(f.stripe, c)
		}
		if s.stopped() {
			return nil // unfinished, as a stop mid-stripe leaves it
		}
		f.esc, f.err = s.evaluate(f)
	}
	return fmt.Errorf("rebuild: stripe %d: escalation loop did not terminate", f.stripe)
}

// notZero is the error of a stripe that fails its zero test at chain ch.
func notZero(stripe int, ch *grid.Chain) error {
	return fmt.Errorf("rebuild: stripe %d: chain %v#%d does not XOR to zero over the repaired stripe", stripe, ch.Kind, ch.Index)
}

// writeStripe writes a stripe's checked cells back at the backend's write
// depth, out[i] to selected[i].Lost. booked runs on this goroutine, so
// the journal and the counters stay single-threaded.
func (s *service) writeStripe(stripe int, selected []core.SelectedChain, out []chunk.Chunk) error {
	addr := func(i int) store.Addr { return AddrOf(stripe, selected[i].Lost) }
	booked := func(i int) error { return s.bookCell(addr(i), selected[i], out[i]) }
	stopped, err := writeBack(s.cfg.Backend, s.cfg.Stop, out, addr, booked)
	if stopped {
		// Graceful stop before the last write was started: the writes in
		// flight were finished and journaled, the next run plans the rest.
		s.res.Interrupted = true
	}
	return err
}

// decodePass is a schemePlan's read-once evaluation order (passFor): each
// source is read once and folded into the accumulators that list it,
// accumulator i summing chains[i]. A decoded plan's accumulators are
// parity-chain syndromes: every decoder equation of a lost set is a sum of
// a few of them written out, so the pass sums each syndrome once — the XOR
// of chains[i]'s surviving cells — and replays on the accumulators
// codes.DecodeSchedule's row additions, which form each equation as the
// same sum of chains. A chain-major plan's pass has no row operations and
// no snapshots: accumulator i is Selected[i]'s repair chain, the rest are
// its check chains.
type decodePass struct {
	// chains are the layout's chains that hold a lost cell and, with
	// verify, the ones that lost nothing too: no equation lists those, the
	// zero test sums them. For a chain-major plan: the repair chains in
	// Selected order, then the check chains.
	chains  []*grid.Chain
	sources []passSource // distinct, by disk then row: one ascending run per disk

	// snaps lists the accumulators copied aside before ops touch them, the
	// k-th into buffer len(chains)+k: the chain of a cell that kept its
	// single chain (that syndrome is the cell) and, with verify, every
	// chain that is checked against its rebuilt members.
	snaps   []int
	ops     []gf2.RowOp // accumulator Dst ^= accumulator Src, in order
	outputs []int       // the buffer that is scheme.Selected[i] once ops have run

	// With verify only: the chains whose snapshot must be zero once their
	// rebuilt members are folded back in, and the accumulators that must be
	// zero as ops leave them — the rows the elimination ended with no lost
	// cell in, among them every chain that never held one.
	checks []passCheck
	spare  []int
}

type passSource struct {
	cell    grid.Coord
	folds   []int // accumulators of the chains the chunk sits on that sum it
	fetched bool  // a Fetch equation lists it; otherwise only the zero test reads it
}

type passCheck struct {
	chain int   // accumulator whose snapshot is tested
	snap  int   // the buffer holding that snapshot; chain itself for a chain-major check
	cells []int // scheme.Selected indexes of the chain's rebuilt members
}

// cellUse is what a plan does with one cell of the stripe: passFor keeps
// one per cell, by CellIndex, and lends them to checkChains.
type cellUse struct {
	rebuilt int // Selected index + 1; 0 if the plan rebuilds no such cell
	source  int // its index in the pass's sources + 1; 0 if the pass does not read it
	summed  int // checkChains: the last candidate chain the cell's parity was taken for
	shown   int // checkChains: Selected index + 1 of the last cell this repair member was shown for

	lost    bool
	fetched bool // a Fetch equation lists it
	held    bool // an accumulator's chain holds it
	extra   bool // checkChains: a check chain taken so far reads it, and nothing else does
	odd     bool // checkChains: the cell is summed an odd number of times in that chain's test
}

// passFor builds plan's read-once pass; it is the only builder of one. The
// plan picks the accumulators' chains: a decoded plan (one with a
// GF(2)-decoder selection) takes every layout chain that holds a lost cell
// — with verify, every chain — and replays the row additions of the
// scheme's decode (Scheme.Decode) on them; a chain-major plan takes its
// repair chains in Selected order, then checkChains'. The rest is one
// rule for both. A surviving chunk is a source when an accumulator's
// chain holds it and either verify is on or a Fetch equation lists it: a
// survivor outside every equation cancels in each sum the schedule forms
// for a rebuilt cell. Sources are read in store-address order, disk then row, and each
// folds into every accumulator whose chain holds it. The outputs are the
// decoder rows and the repair chains' sums, the latter snapshotted before
// the row additions in a decoded pass. With verify, every accumulator
// whose sum is no output is checked if its chain holds a rebuilt cell and
// no unsolved one — in a decoded pass against its snapshot, and the rows
// the decode spared must be zero.
func (s *service) passFor(plan *schemePlan) *decodePass {
	selected, verified := plan.scheme.Selected, !s.cfg.NoVerify
	layout := s.code.Layout()
	uses := make([]cellUse, layout.Cells())
	at := func(cell grid.Coord) *cellUse { return &uses[s.code.CellIndex(cell)] }
	for _, c := range plan.lost {
		at(c).lost = true
	}
	decoded := false
	for i, sel := range selected {
		at(sel.Lost).rebuilt = i + 1
		for _, m := range sel.Fetch {
			at(m).fetched = true
		}
		decoded = decoded || sel.Decoded
	}

	// The schedule names chains by their index in chains, which accAt maps
	// to accumulators; a chain-major pass has no row operations.
	chains, sched := layout.Chains(), &codes.DecodeSchedule{}
	p := &decodePass{chains: make([]*grid.Chain, 0, len(chains)), outputs: make([]int, len(selected))}
	var accAt []int
	if decoded {
		sched = plan.scheme.Decode
		accAt = make([]int, len(chains))
		for i := range chains {
			if verified || slices.ContainsFunc(chains[i].Cells, func(c grid.Coord) bool { return at(c).lost }) {
				accAt[i] = len(p.chains)
				p.chains = append(p.chains, &chains[i])
			}
		}
	} else {
		for _, sel := range selected {
			ch, _ := layout.Chain(sel.Chain)
			p.chains = append(p.chains, ch)
		}
		if verified {
			p.chains = checkChains(p.chains, layout, selected, at)
		}
	}
	for _, ch := range p.chains {
		for _, c := range ch.Cells {
			at(c).held = true
		}
	}

	snap := func(acc int) int {
		if !decoded {
			return acc // no row additions to keep the sum from
		}
		p.snaps = append(p.snaps, acc)
		return len(p.chains) + len(p.snaps) - 1
	}
	output := make([]bool, len(p.chains)) // a repair chain: its sum is a rebuilt cell
	for i, sel := range selected {
		if sel.Decoded {
			p.outputs[i] = accAt[sched.Row[sel.Lost]]
			continue
		}
		ch, _ := layout.Chain(sel.Chain)
		acc := slices.Index(p.chains, ch) // holds no other lost cell: no other cell's output
		output[acc] = true
		p.outputs[i] = snap(acc)
	}
	if verified {
		for acc, ch := range p.chains {
			if output[acc] {
				continue // its sum is the cell itself: zero by construction
			}
			rebuilt, unsolved := false, false // unsolved: nothing to test the chain against
			for _, c := range ch.Cells {
				u := at(c)
				rebuilt = rebuilt || u.rebuilt > 0
				unsolved = unsolved || u.lost && u.rebuilt == 0
			}
			if rebuilt && !unsolved {
				p.checks = append(p.checks, passCheck{chain: acc, snap: snap(acc)})
			}
		}
		for _, row := range sched.Spare {
			p.spare = append(p.spare, accAt[row])
		}
	}
	// The elimination only ever adds rows that hold a lost cell.
	for _, op := range sched.Ops {
		p.ops = append(p.ops, gf2.RowOp{Dst: accAt[op.Dst], Src: accAt[op.Src]})
	}

	for col := 0; col < layout.Cols(); col++ {
		for row := 0; row < layout.Rows(); row++ {
			cell := grid.Coord{Row: row, Col: col}
			if u := at(cell); u.held && !u.lost && (verified || u.fetched) {
				p.sources = append(p.sources, passSource{cell: cell, fetched: u.fetched})
				u.source = len(p.sources)
			}
		}
	}
	// Fill every list — each source's accumulators, then each check's
	// rebuilt members — in one array: walk names every (list, entry) pair,
	// the first walk counts them and the second places them.
	nSrc := len(p.sources)
	walk := func(visit func(list, entry int)) {
		for acc, ch := range p.chains {
			for _, c := range ch.Cells {
				if u := at(c); u.source > 0 {
					visit(u.source-1, acc)
				}
			}
		}
		for k, check := range p.checks {
			for _, c := range p.chains[check.chain].Cells {
				if u := at(c); u.rebuilt > 0 {
					visit(nSrc+k, u.rebuilt-1)
				}
			}
		}
	}
	end := make([]int, nSrc+len(p.checks)+1) // end[k] is where list k ends once filled
	walk(func(list, _ int) { end[list+1]++ })
	for k := 1; k < len(end); k++ {
		end[k] += end[k-1]
	}
	lists := make([]int, end[len(end)-1])
	walk(func(list, entry int) {
		lists[end[list]] = entry
		end[list]++
	})
	start := 0
	for k, e := range end[:len(end)-1] {
		if list := lists[start:e:e]; k < nSrc {
			p.sources[k].folds = list
		} else {
			p.checks[k-nSrc].cells = list
		}
		start = e
	}
	return p
}

// evaluate is the read-once pass of one stripe. Replaying a plan cell by
// cell asks for a survivor once per equation that lists it (a decoder
// equation lists about half the stripe; looped repair chains share
// members); here each source is read from the backend exactly once and
// folded into every accumulator that lists it, and a decoded plan's row
// additions on its syndromes leave every solvable cell in its pivot row.
// A source that is missing, corrupt or the wrong size is returned for
// escalation (nothing has been written yet, so the caller's re-plan
// restarts the pass). Unless NoVerify, the repaired stripe must then pass
// the zero test: every checked chain, its rebuilt members folded back in
// from the outputs, XORs to zero, and so does every row the elimination
// did not need — the chains that lost nothing among them.
//
// The pass works in f's buffers, allocated on first use, pass.width() of
// them: one per accumulator, one per snapshot and a read buffer. It books
// into f's tally, not into the run's cells: each Fetch source as a disk
// read, a chunk only the zero test needs as a verify read. It reads
// nothing of the service that changes during a run, so it may run on a
// lane goroutine.
func (s *service) evaluate(f *flight) (*grid.Coord, error) {
	stripe, pass, t := f.stripe, f.plan.pass, &f.tally
	for len(f.bufs) < pass.width() {
		f.bufs = append(f.bufs, chunk.New(s.cfg.Manifest.ChunkSize))
	}
	*t = evalTally{}
	accs, buf := f.bufs[:pass.width()-1], f.bufs[pass.width()-1]
	for _, acc := range accs[:len(pass.chains)] {
		clear(acc)
	}
	for _, src := range pass.sources {
		if err := s.readSource(AddrOf(stripe, src.cell), buf); err != nil {
			return escalation(src.cell, err)
		}
		if src.fetched {
			t.reads++
		} else {
			t.verifyReads++
		}
		for _, acc := range src.folds {
			chunk.XORInto(accs[acc], buf)
		}
	}
	for k, acc := range pass.snaps {
		copy(accs[len(pass.chains)+k], accs[acc])
	}
	for _, op := range pass.ops {
		chunk.XORInto(accs[op.Dst], accs[op.Src])
	}

	if !s.cfg.NoVerify {
		for _, check := range pass.checks {
			for _, i := range check.cells {
				chunk.XORInto(accs[check.snap], accs[pass.outputs[i]])
			}
			if !accs[check.snap].IsZero() {
				return nil, notZero(stripe, pass.chains[check.chain])
			}
		}
		for _, acc := range pass.spare {
			if ch := pass.chains[acc]; !accs[acc].IsZero() {
				return nil, fmt.Errorf("rebuild: stripe %d: the surviving chunks disagree: the row the decode left at chain %v#%d is not zero", stripe, ch.Kind, ch.Index)
			}
		}
		t.verified += uint64(len(pass.outputs))
	}
	return nil, nil
}

// width is the number of buffers evaluate takes for the pass: one per
// accumulator, one per snapshot and a read buffer.
func (p *decodePass) width() int { return len(p.chains) + len(p.snaps) + 1 }

// out lists the buffers that hold the rebuilt cells once evaluate has
// run in bufs, in scheme.Selected order.
func (p *decodePass) out(bufs []chunk.Chunk) []chunk.Chunk {
	out := make([]chunk.Chunk, len(p.outputs))
	for i, b := range p.outputs {
		out[i] = bufs[b]
	}
	return out
}

// evalTally is what one evaluation of a stripe counts, kept apart from
// the run's cells until the stripe is taken in repair order.
type evalTally struct {
	reads, verifyReads, verified uint64
}

// book adds the tally to the run's cells.
func (t *evalTally) book(m *telemetry.RebuildMetrics) {
	m.DiskReads.Add(t.reads)
	m.VerifyReads.Add(t.verifyReads)
	m.ChunksVerified.Add(t.verified)
}

// bookCell journals the commit of a chunk WriteChunk has returned nil
// for and counts it.
func (s *service) bookCell(a store.Addr, sel core.SelectedChain, data chunk.Chunk) error {
	if s.journal != nil {
		if err := s.journaled(s.journal.AppendCommit(a, PayloadCRC(data))); err != nil {
			return err
		}
	}
	s.m.BytesWritten.Add(uint64(len(data)))
	s.m.ChunksRebuilt.Inc()
	if sel.Decoded {
		s.m.ChunksDecoded.Inc()
	}
	return nil
}

// checkChains appends a chain-major plan's check chains to chains, its
// repair chains. For each selected cell in turn it takes layout chains
// through the cell other than its repair chain, none with an unsolved
// member (data loss is never read); the one with the fewest members the
// stripe does not read anyway goes first — a member counts unless a repair
// chain fetches it, the plan rebuilds it or a check taken for an earlier
// cell reads it — ties in layout order. A lie in a chunk shows in a check
// chain's sum if the chunk is summed an odd number of times: once if the
// chain holds it, once more for each rebuilt member whose repair chain
// fetched it. So a chain is taken only if it shows a member of the cell's
// repair chain that no chain taken for the cell so far shows — the first
// usable one nearly always; a further one where the repair chain and the
// check chain share members (STAR's adjusters) or the check chain holds a
// second rebuilt cell. A chain taken for two cells is appended once. at is
// the plan's use of each cell as passFor filled it; checkChains keeps its
// own marks there.
func checkChains(chains []*grid.Chain, layout *grid.Layout, selected []core.SelectedChain, at func(grid.Coord) *cellUse) []*grid.Chain {
	// unread counts a chain's members the stripe reads for nothing else, or
	// is -1 for a chain with an unsolved member.
	unread := func(ch *grid.Chain) (n int) {
		for _, m := range ch.Cells {
			switch u := at(m); {
			case u.lost && u.rebuilt == 0:
				return -1
			case u.rebuilt == 0 && !u.fetched && !u.extra:
				n++
			}
		}
		return n
	}

	candidate := 0
	flip := func(m grid.Coord) {
		if u := at(m); u.summed != candidate {
			u.summed, u.odd = candidate, true
		} else {
			u.odd = !u.odd
		}
	}

	for i, sel := range selected {
		cands := layout.ChainsThrough(sel.Lost) // a copy, ours to reorder
		cands = slices.DeleteFunc(cands, func(ch *grid.Chain) bool { return ch.ID() == sel.Chain || unread(ch) < 0 })
		slices.SortStableFunc(cands, func(a, b *grid.Chain) int { return cmp.Compare(unread(a), unread(b)) })
		for _, ch := range cands {
			candidate++
			for _, m := range ch.Cells {
				flip(m)
				if y := at(m).rebuilt; y > 0 {
					for _, f := range selected[y-1].Fetch {
						flip(f)
					}
				}
			}
			shown := false
			for _, m := range sel.Fetch {
				if u := at(m); u.summed == candidate && u.odd && u.shown != i+1 {
					u.shown, shown = i+1, true
				}
			}
			if !shown || slices.Contains(chains[len(selected):], ch) {
				continue
			}
			chains = append(chains, ch)
			for _, m := range ch.Cells {
				if u := at(m); u.rebuilt == 0 && !u.fetched {
					u.extra = true
				}
			}
		}
	}
	return chains
}

// escalation is what a replay returns for a failed source read: the cell,
// to be escalated, when a chunk the scan believed healthy is missing or
// corrupt (the real-bytes analogue of a URE mid-rebuild), else the error.
func escalation(cell grid.Coord, err error) (*grid.Coord, error) {
	if store.IsNotFound(err) || store.IsCorrupt(err) {
		return &cell, nil
	}
	return nil, err
}

// readSource reads one surviving chunk into buf. A valid
// chunk of another size cannot serve this array: it reads as corrupt.
func (s *service) readSource(a store.Addr, buf chunk.Chunk) error {
	n, err := s.cfg.Backend.ReadChunk(a, buf)
	if err == nil && n != len(buf) {
		err = &store.CorruptError{Addr: a, Err: fmt.Errorf("payload is %d bytes, manifest says %d", n, len(buf))}
	}
	return err
}

// loseCell accounts one cell of the stripe under repair as data loss,
// once.
func (s *service) loseCell(stripe int, c grid.Coord) {
	if s.lost[c] {
		return
	}
	s.lost[c] = true
	s.res.Lost = append(s.res.Lost, AddrOf(stripe, c))
}

func mergeCell(lost []grid.Coord, c grid.Coord) []grid.Coord {
	if slices.Contains(lost, c) {
		return lost
	}
	lost = append(lost, c)
	sort.Slice(lost, func(i, j int) bool { return lost[i].Less(lost[j]) })
	return lost
}
