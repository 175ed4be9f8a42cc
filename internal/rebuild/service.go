// service.go promotes the simulator's data plane into a storage engine:
// rebuild.Service drives the same scheme/cache machinery the event-driven
// engine replays — chain selection, cache.Policy residency with FBF
// priorities — plus the escalate-and-replan ladder (core.RegenerateScheme)
// against real bytes in a store.Backend, checking every
// recovered chunk before it is written back: parity chains of the
// repaired stripe must XOR to zero. A stripe is evaluated in one of two
// orders, chosen by its plan: chain by chain through the byte cache, the
// chunks it fetches folded into the check chains picked with the plan as
// well (chainCheck), when every lost cell has a single parity chain
// (replayChains — the paper's partial stripe errors), or in one read-once
// pass that sums the stripe's chain syndromes, decodes on them and tests
// every chain, when the plan needs the GF(2) decoder (replayDecoded —
// whole-disk damage). Either way the whole stripe passes its test before
// writeBack starts its first write.
package rebuild

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"fbf/internal/cache"
	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/gf2"
	"fbf/internal/grid"
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

	Policy   string        // cache policy for surviving-chunk bytes (default "fbf")
	Strategy core.Strategy // chain-selection strategy

	// CacheChunks bounds the in-memory byte cache holding surviving
	// chunks across chains (default 64). Zero keeps the default; a
	// negative value disables caching entirely.
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
	// parity-chain zero test a stripe passes before its first write, in
	// either evaluation order.
	NoVerify bool

	// Priority selects the stripe repair order (PrioritySequential
	// default, PriorityVulnerable).
	Priority string

	// JournalPath, when set, makes the rebuild crash-safe: scan results,
	// per-stripe plans, and per-chunk commits append to a write-ahead
	// journal at this path, and a rerun with the same path resumes —
	// repairing the interrupted stripe's committed chunks again, through
	// the zero test like any other, before continuing. The journal is
	// removed on clean completion. Incompatible with CheckOnly and
	// DryRun, which perform no repairs to journal.
	JournalPath string

	// Stop, when non-nil, requests graceful shutdown: once the channel
	// is closed the service starts no further chunk write, finishes and
	// journals the writes in flight (up to the backend's write depth of
	// them: every stripe is written back as one group, in either
	// evaluation order), syncs the journal, and returns with Interrupted
	// set instead of an error.
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
	if c.Policy == "" {
		c.Policy = "fbf"
	}
	if c.CacheChunks == 0 {
		c.CacheChunks = 64
	}
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
	if _, err := cache.New(c.Policy, 0); err != nil {
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
// is encoded, and all chunks are written. The chunk buffers are pooled
// and flow straight into the backend's file/object I/O.
func InitStore(b store.Backend, m store.ArrayManifest, seed int64) error {
	code, err := ResolveCode(m)
	if err != nil {
		return err
	}
	pool := chunk.NewPool(m.ChunkSize)
	stripeBuf := make([]chunk.Chunk, code.Layout().Cells())
	for i := range stripeBuf {
		stripeBuf[i] = pool.GetRaw()
	}
	defer func() {
		for _, c := range stripeBuf {
			pool.Put(c)
		}
	}()
	for s := 0; s < m.Stripes; s++ {
		code.MaterializeStripeInto(stripeBuf, StripeSeed(seed, s))
		// writeBack returns with nothing in flight, so the buffers are free
		// to refill for the next stripe.
		addr := func(idx int) store.Addr { return AddrOf(s, code.CoordOf(idx)) }
		if _, err := writeBack(b, nil, stripeBuf, addr, func(int) error { return nil }); err != nil {
			return err
		}
	}
	return nil
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

	// PerDiskPresent counts readable chunks per disk; FailedDisks lists
	// disks with nothing present at all (the killed-directory state).
	PerDiskPresent []int
	FailedDisks    []int

	// ExtraChunks are addresses present in the store but outside the
	// manifest geometry — reported, never touched.
	ExtraChunks []store.Addr
}

// Clean reports an undamaged store.
func (r *DamageReport) Clean() bool { return r.MissingChunks == 0 && r.CorruptChunks == 0 }

// LostChunks returns the total unreadable chunks.
func (r *DamageReport) LostChunks() int { return r.MissingChunks + r.CorruptChunks }

// ScanStore assesses a store against its manifest: every in-geometry
// address is checked for presence and validity (Stat's header check by
// default; full payload CRC reads with scrub) and grouped into
// per-stripe damage.
func ScanStore(b store.Backend, m store.ArrayManifest, scrub bool) (*DamageReport, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	report := &DamageReport{PerDiskPresent: make([]int, m.Disks)}
	perStripe := make(map[int]*StripeDamage)
	damage := func(stripe int, cell grid.Coord, corrupt bool) {
		d := perStripe[stripe]
		if d == nil {
			d = &StripeDamage{Stripe: stripe}
			perStripe[stripe] = d
		}
		if corrupt {
			d.Corrupt = append(d.Corrupt, cell)
			report.CorruptChunks++
		} else {
			d.Missing = append(d.Missing, cell)
			report.MissingChunks++
		}
	}
	var buf chunk.Chunk
	if scrub {
		buf = chunk.New(m.ChunkSize)
	}
	for disk := 0; disk < m.Disks; disk++ {
		addrs, err := b.List(disk)
		if err != nil {
			return nil, err
		}
		present := make(map[store.Addr]bool, len(addrs))
		for _, a := range addrs {
			if a.Stripe >= m.Stripes || a.Chunk >= m.Rows {
				report.ExtraChunks = append(report.ExtraChunks, a)
				continue
			}
			present[a] = true
		}
		for stripe := 0; stripe < m.Stripes; stripe++ {
			for row := 0; row < m.Rows; row++ {
				cell := grid.Coord{Row: row, Col: disk}
				a := AddrOf(stripe, cell)
				if !present[a] {
					damage(stripe, cell, false)
					continue
				}
				var err error
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
					damage(stripe, cell, true)
				case store.IsNotFound(err):
					damage(stripe, cell, false)
				case err != nil:
					return nil, err
				case size != m.ChunkSize:
					// Valid codec, wrong array: a chunk of another
					// store's geometry cannot serve reads here.
					damage(stripe, cell, true)
				default:
					report.PerDiskPresent[disk]++
				}
			}
		}
		if report.PerDiskPresent[disk] == 0 && m.Stripes*m.Rows > 0 {
			report.FailedDisks = append(report.FailedDisks, disk)
		}
	}
	for _, d := range perStripe {
		sort.Slice(d.Missing, func(i, j int) bool { return d.Missing[i].Less(d.Missing[j]) })
		sort.Slice(d.Corrupt, func(i, j int) bool { return d.Corrupt[i].Less(d.Corrupt[j]) })
		report.Stripes = append(report.Stripes, *d)
	}
	sort.Slice(report.Stripes, func(i, j int) bool { return report.Stripes[i].Stripe < report.Stripes[j].Stripe })
	sort.Slice(report.ExtraChunks, func(i, j int) bool { return report.ExtraChunks[i].Less(report.ExtraChunks[j]) })
	return report, nil
}

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

	DiskReads   uint64 // backend payload reads during repair
	VerifyReads uint64 // backend reads for the check alone: chain members it did not find in the byte cache
	CacheHits   uint64
	CacheMisses uint64

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
// the scheme/cache/escalation machinery, checking recovered chunks (the
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

	s, err := newService(&cfg, code, res, jn)
	if err != nil {
		if jn != nil {
			jn.Close()
		}
		return nil, err
	}
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
func newService(cfg *ServiceConfig, code *codes.Code, res *ServiceResult, jn *Journal) (*service, error) {
	s := &service{cfg: cfg, m: cfg.Metrics, code: code, res: res, pool: chunk.NewPool(cfg.Manifest.ChunkSize), journal: jn,
		lost: make(map[grid.Coord]bool)}
	tally(s.m, &ServiceResult{}, &s.base)
	if cfg.CacheChunks > 0 {
		var err error
		if s.policy, err = cache.New(cfg.Policy, cfg.CacheChunks); err != nil {
			return nil, err
		}
		s.bufs = make(map[cache.ChunkID]chunk.Chunk, cfg.CacheChunks)
		// The policy names each chunk it replaces, so the byte map mirrors
		// its resident set without ever being scanned.
		s.policy.SetOnEvict(s.dropBuf)
	}
	return s, nil
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
	dst.CacheHits = m.CacheHits.Value() - base.CacheHits
	dst.CacheMisses = m.CacheMisses.Value() - base.CacheMisses
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
	cfg, res, report := s.cfg, s.res, s.res.Report
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
	for _, d := range order {
		if stopRequested(s.cfg.Stop) {
			res.Interrupted = true
		}
		if res.Interrupted {
			break
		}
		if err := s.repairStripe(d); err != nil {
			return err
		}
		if res.Interrupted {
			// The stop landed mid-stripe: the writes in flight were
			// finished and committed, but the stripe was not.
			break
		}
		s.m.StripesDone.Inc()
		tally(s.m, &s.base, res)
		s.m.Percent.Set(float64(Progress{StripesTotal: len(order), StripesDone: res.StripesRepaired}.Percent()))
		if cfg.Progress != nil {
			cfg.Progress(Progress{Stripe: d.Stripe, StripesTotal: len(order), StripesDone: res.StripesRepaired, ChunksRebuilt: res.ChunksRebuilt})
		}
	}
	return nil
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
	pool *chunk.Pool

	// work holds the buffers of the stripe under evaluation (stripeBufs),
	// kept from one stripe to the next.
	work []chunk.Chunk

	// lost holds the cells of the stripe under repair that were accounted
	// as data loss, so that loseCell books each once across re-plans. A
	// re-plan only grows the lost set, so no later plan rebuilds one.
	lost map[grid.Coord]bool

	// Byte cache: the policy decides residency (with FBF priorities
	// from each scheme), bufs mirrors its resident set with the actual
	// bytes. nil policy disables caching.
	policy cache.Policy
	bufs   map[cache.ChunkID]chunk.Chunk

	// Scheme memoization: killed whole disks damage every stripe with the
	// same cell pattern, so the (expensive) chain selection and decoder
	// elimination are shared across stripes.
	schemes map[string]*schemePlan

	// journal is the write-ahead rebuild journal, nil for unjournaled
	// runs (the default path stays byte-identical to prior releases).
	journal *Journal
}

// schemePlan caches one lost-cell pattern's generated scheme and its
// unsolvable cells, with what checks the bytes it rebuilds.
type schemePlan struct {
	lost     []grid.Coord // the pattern, sorted
	scheme   *core.Scheme
	unsolved []grid.Coord

	// decoded reports a scheme with at least one GF(2)-decoder selection;
	// such a stripe is rebuilt by replayDecoded along pass, built on
	// first use and carrying its own zero test. A scheme of single chains
	// goes chain by chain through the byte cache (replayChains), tested by
	// check.
	decoded bool
	pass    *decodePass
	check   *chainCheck
}

// chainCheck is a chain-major plan's zero test, picked with the plan
// (checkFor): the check chains, and where each of their members comes
// from. Accumulator j sums chains[j]. A member some repair chain fetches
// is folded in as it is fetched, on its first request; one no repair chain
// fetches is read once, as a verify read; a rebuilt member is folded in
// from memory. Every accumulator must then be zero.
type chainCheck struct {
	chains []*grid.Chain
	folds  [][]int      // by request, Selected then Fetch order: the accumulators the chunk folds into
	extra  []passSource // members no repair chain fetches, by disk then row
	cells  [][]int      // by Selected index: the accumulators the rebuilt cell folds into
}

func lostKey(lost []grid.Coord) string {
	var b strings.Builder
	for _, c := range lost {
		fmt.Fprintf(&b, "%d,%d;", c.Row, c.Col)
	}
	return b.String()
}

// planFor generates (or recalls) the recovery scheme for one sorted
// lost-cell pattern. The synthetic PartialStripeError only carries
// stripe/cell bookkeeping into the Scheme; RegenerateScheme does not
// re-validate it, which is exactly what lets the service repair
// multi-disk and whole-column damage a plain partial-stripe error
// cannot describe.
func (s *service) planFor(stripe int, lost []grid.Coord) (*schemePlan, error) {
	key := lostKey(lost)
	if p, ok := s.schemes[key]; ok {
		return p, nil
	}
	e := core.PartialStripeError{Stripe: stripe, Disk: lost[0].Col, Row: lost[0].Row, Size: len(lost)}
	scheme, unsolved, err := core.RegenerateScheme(s.code, e, lost, nil, s.cfg.Strategy)
	if err != nil {
		return nil, err
	}
	// A copy: the caller's slice grows in place when a cell escalates.
	p := &schemePlan{lost: append([]grid.Coord(nil), lost...), scheme: scheme, unsolved: unsolved}
	for _, sel := range scheme.Selected {
		p.decoded = p.decoded || sel.Decoded
	}
	if !p.decoded {
		p.check = s.checkFor(p)
	}
	if s.schemes == nil {
		s.schemes = make(map[string]*schemePlan)
	}
	s.schemes[key] = p
	return p, nil
}

// repairStripe rebuilds one damaged stripe: plan, replay the plan in the
// order it calls for (replayChains or replayDecoded), check, write back
// — escalating and re-planning when a surviving chunk turns out
// unreadable or corrupt.
func (s *service) repairStripe(d StripeDamage) error {
	lost := d.Lost()
	plan, err := s.planFor(d.Stripe, lost)
	if err != nil {
		return err
	}
	clear(s.lost)
	for _, c := range plan.unsolved {
		s.loseCell(d.Stripe, c)
	}
	if s.cfg.DryRun {
		s.res.PlannedChunks += len(plan.scheme.Selected)
		s.res.PlannedReads += plan.scheme.UniqueFetches()
		return nil
	}

	// replayDecoded never consults the cache, so a decoder plan's
	// priorities and request sequence would be built and thrown away.
	if !plan.decoded {
		if pa, ok := s.policy.(cache.PriorityAware); ok && s.policy != nil {
			pa.SetPriorities(prioritiesFor(plan.scheme, d.Stripe))
		}
		if fa, ok := s.policy.(cache.FutureAware); ok && s.policy != nil {
			fa.SetFuture(requestsFor(plan.scheme, d.Stripe))
		}
	}

	// The escalation loop: a failed source read escalates that cell to
	// lost and regenerates the plan. Both orders read everything they need
	// before the stripe's first write, so nothing of it has been written
	// and the new plan is simply the grown lost set's. Every escalation
	// grows that set, so the loop is bounded by the stripe's cell count.
	for attempt := 0; attempt <= s.code.Layout().Cells(); attempt++ {
		var esc *grid.Coord
		if plan.decoded {
			esc, err = s.replayDecoded(d.Stripe, plan)
		} else {
			esc, err = s.replayChains(d.Stripe, plan)
		}
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
				if err := s.journaled(s.journal.AppendStripeDone(d.Stripe)); err != nil {
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
		if id := (cache.ChunkID{Stripe: d.Stripe, Cell: *esc}); s.policy != nil && s.policy.Invalidate(id) {
			s.dropBuf(id)
		}
		lost = mergeCell(lost, *esc)
		plan, err = s.planFor(d.Stripe, lost)
		if err != nil {
			return err
		}
		s.m.Regenerations.Inc()
		for _, c := range plan.unsolved {
			s.loseCell(d.Stripe, c)
		}
	}
	return fmt.Errorf("rebuild: stripe %d: escalation loop did not terminate", d.Stripe)
}

// replayChains executes the scheme's selected chains in order, each
// through the byte cache — the evaluation order of a plan made of single
// parity chains, where cache.Policy decides what a later chain finds
// resident — into one buffer per rebuilt cell. Each fetched chunk is also
// folded into the plan's check chains it sits on, on its first request;
// unless NoVerify the members no repair chain fetches are then read, once
// each, the rebuilt cells folded in, and every check chain must be zero
// before writeBack starts the stripe's first write. It returns a non-nil
// cell when a source read failed and the caller must escalate (nothing of
// the stripe has been written then), nil when the stripe's solvable cells
// are all repaired. Beside the byte cache the stripe takes one buffer per
// rebuilt cell, one per check chain and one read buffer (stripeBufs).
func (s *service) replayChains(stripe int, plan *schemePlan) (*grid.Coord, error) {
	if stopRequested(s.cfg.Stop) {
		s.res.Interrupted = true
		return nil, nil
	}
	selected, check := plan.scheme.Selected, plan.check
	work := s.stripeBufs(len(selected) + len(check.chains) + 1)
	out, sums, buf := work[:len(selected)], work[len(selected):len(work)-1], work[len(work)-1]
	for _, sum := range sums {
		clear(sum)
	}

	r := 0 // request number
	for i, sel := range selected {
		if len(sel.Fetch) == 0 {
			clear(out[i])
		}
		for k, cell := range sel.Fetch {
			if err := s.fetchInto(stripe, cell, out[i], k == 0, sums, check.folds[r]); err != nil {
				return escalation(cell, err)
			}
			r++
		}
	}

	if !s.cfg.NoVerify {
		for _, src := range check.extra {
			if err := s.readSource(AddrOf(stripe, src.cell), buf); err != nil {
				return escalation(src.cell, err)
			}
			s.m.VerifyReads.Inc()
			for _, j := range src.folds {
				chunk.XORInto(sums[j], buf)
			}
		}
		for i, js := range check.cells {
			for _, j := range js {
				chunk.XORInto(sums[j], out[i])
			}
		}
		for j, ch := range check.chains {
			if !sums[j].IsZero() {
				return nil, notZero(stripe, ch)
			}
		}
		s.m.ChunksVerified.Add(uint64(len(selected)))
	}
	return nil, s.writeStripe(stripe, selected, out)
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

// decodePass is a schemePlan's read-once evaluation order on parity-chain
// syndromes. Every decoder equation of a lost set is a sum of a few of
// the stripe's chain syndromes written out, so the pass sums each
// syndrome once — accumulator i is the XOR of chains[i]'s surviving
// cells — and replays on the accumulators codes.DecodeSchedule's row
// additions, which form each equation as the same sum of chains.
type decodePass struct {
	// chains are the layout's chains that hold a lost cell and, with
	// verify, the ones that lost nothing too: no equation lists those, the
	// zero test sums them.
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
	folds   []int // accumulators of the chains the chunk sits on
	fetched bool  // a Fetch equation lists it; otherwise only the zero test reads it
}

type passCheck struct {
	chain int   // accumulator whose snapshot is tested
	snap  int   // the buffer holding that snapshot
	cells []int // scheme.Selected indexes of the chain's rebuilt members
}

// passFor builds (or recalls) the plan's decodePass. Without verify the
// sources are the chunks some Fetch equation lists, folded into the
// accumulator of every chain with a lost cell that contains them: a
// survivor outside every equation cancels in each sum the schedule forms
// for a rebuilt cell, so it is not read. The zero test reads what the
// equations cancelled: with verify every accumulator is its chain's
// whole syndrome, every chain of the layout has one, and every surviving
// chunk of the stripe is a source.
func (s *service) passFor(plan *schemePlan) (*decodePass, error) {
	if plan.pass != nil {
		return plan.pass, nil
	}
	sched, err := s.code.DecodeSchedule(plan.lost)
	if err != nil {
		return nil, err
	}
	selected, verified := plan.scheme.Selected, !s.cfg.NoVerify
	lost := make(map[grid.Coord]bool, len(plan.lost))
	for _, c := range plan.lost {
		lost[c] = true
	}
	rebuilt := make(map[grid.Coord]int, len(selected)) // cell -> Selected index
	inFetch := make(map[grid.Coord]bool)
	for i, sel := range selected {
		rebuilt[sel.Lost] = i
		for _, c := range sel.Fetch {
			inFetch[c] = true
		}
	}

	p := &decodePass{outputs: make([]int, len(selected))}
	chains := s.code.Layout().Chains() // the schedule names chains by their index here
	accOf := make(map[grid.ChainID]int)
	at := make(map[grid.Coord]*passSource)
	for i := range chains {
		ch := &chains[i]
		survivors := ch.Survivors(lost)
		if len(survivors) == len(ch.Cells) && !verified {
			continue
		}
		acc := len(p.chains)
		accOf[ch.ID()] = acc
		p.chains = append(p.chains, ch)
		for _, cell := range survivors {
			if !verified && !inFetch[cell] {
				continue
			}
			src := at[cell]
			if src == nil {
				src = &passSource{cell: cell, fetched: inFetch[cell]}
				at[cell] = src
			}
			src.folds = append(src.folds, acc)
		}
	}
	for _, src := range at {
		p.sources = append(p.sources, *src)
	}
	sort.Slice(p.sources, func(i, j int) bool { // store address order
		return AddrOf(0, p.sources[i].cell).Less(AddrOf(0, p.sources[j].cell))
	})

	// The elimination only ever adds rows that hold a lost cell.
	for _, op := range sched.Ops {
		p.ops = append(p.ops, gf2.RowOp{Dst: accOf[chains[op.Dst].ID()], Src: accOf[chains[op.Src].ID()]})
	}
	snap := func(acc int) int {
		p.snaps = append(p.snaps, acc)
		return len(p.chains) + len(p.snaps) - 1
	}
	kept := make(map[int]bool) // accumulators whose snapshot is a rebuilt cell
	for i, sel := range selected {
		if sel.Decoded {
			p.outputs[i] = accOf[chains[sched.Row[sel.Lost]].ID()]
			continue
		}
		// A chain that rebuilds a cell alone holds no other lost cell, so it
		// is kept by that cell only.
		acc := accOf[sel.Chain]
		kept[acc] = true
		p.outputs[i] = snap(acc)
	}
	if verified {
		for acc, ch := range p.chains {
			if kept[acc] {
				continue // its snapshot is the cell itself: zero by construction
			}
			var cells []int
			unsolved := false
			for _, cell := range ch.Cells {
				if i, ok := rebuilt[cell]; ok {
					cells = append(cells, i)
				} else if lost[cell] {
					unsolved = true // nothing to test the chain against
				}
			}
			if len(cells) > 0 && !unsolved {
				p.checks = append(p.checks, passCheck{chain: acc, snap: snap(acc), cells: cells})
			}
		}
		for _, row := range sched.Spare {
			p.spare = append(p.spare, accOf[chains[row].ID()])
		}
	}
	plan.pass = p
	return p, nil
}

// replayDecoded rebuilds a stripe whose plan needs the GF(2) decoder in
// one pass over its surviving chunks. A decoder equation lists about
// half the stripe, so replaying such a plan cell by cell asks for every
// survivor dozens of times and sums what the equations share dozens of
// times; here each source is read from the backend exactly once and
// folded into the syndromes of the two or three chains it sits on, and
// the elimination's row additions on those syndromes leave every
// solvable cell in its pivot row. A source that is missing, corrupt or
// the wrong size escalates (nothing has been written yet, so the caller's
// re-plan restarts the pass). Unless NoVerify, nothing is written before
// the repaired stripe passes the zero test: every chain through a
// rebuilt cell, its members taken from grid.Layout and not from the
// elimination, XORs to zero, and so does every row the elimination did
// not need — the chains that lost nothing among them. Every write is
// journaled as it completes (writeBack keeps up to the backend's write
// depth of them in flight). The pass takes one buffer per accumulator,
// one per snapshot and a read buffer (stripeBufs) — never more than
// 2·chains+1 for a layout of that many chains, and without verify one
// per chain with a lost cell, one per cell that kept its chain, and the
// read buffer — and never consults the byte cache; each Fetch source is
// booked as a disk read and, with a cache configured, as the compulsory
// miss it would have been, so DiskReads == CacheMisses holds in both
// orders. A chunk only the zero test needs is a verify read.
func (s *service) replayDecoded(stripe int, plan *schemePlan) (*grid.Coord, error) {
	if stopRequested(s.cfg.Stop) {
		s.res.Interrupted = true
		return nil, nil
	}
	pass, err := s.passFor(plan)
	if err != nil {
		return nil, err
	}
	selected := plan.scheme.Selected
	work := s.stripeBufs(len(pass.chains) + len(pass.snaps) + 1)
	bufs, buf := work[:len(work)-1], work[len(work)-1]
	for _, acc := range bufs[:len(pass.chains)] {
		clear(acc)
	}

	for _, src := range pass.sources {
		err := s.readSource(AddrOf(stripe, src.cell), buf)
		if store.IsNotFound(err) || store.IsCorrupt(err) {
			cell := src.cell
			return &cell, nil
		}
		if err != nil {
			return nil, err
		}
		if src.fetched {
			s.m.DiskReads.Inc()
			if s.policy != nil {
				s.m.CacheMisses.Inc()
			}
		} else {
			s.m.VerifyReads.Inc()
		}
		for _, acc := range src.folds {
			chunk.XORInto(bufs[acc], buf)
		}
	}
	for k, acc := range pass.snaps {
		copy(bufs[len(pass.chains)+k], bufs[acc])
	}
	for _, op := range pass.ops {
		chunk.XORInto(bufs[op.Dst], bufs[op.Src])
	}

	if !s.cfg.NoVerify {
		for _, check := range pass.checks {
			for _, i := range check.cells {
				chunk.XORInto(bufs[check.snap], bufs[pass.outputs[i]])
			}
			if !bufs[check.snap].IsZero() {
				return nil, notZero(stripe, pass.chains[check.chain])
			}
		}
		for _, acc := range pass.spare {
			if ch := pass.chains[acc]; !bufs[acc].IsZero() {
				return nil, fmt.Errorf("rebuild: stripe %d: the surviving chunks disagree: the row the decode left at chain %v#%d is not zero", stripe, ch.Kind, ch.Index)
			}
		}
		s.m.ChunksVerified.Add(uint64(len(selected)))
	}
	out := make([]chunk.Chunk, len(selected))
	for i := range out {
		out[i] = bufs[pass.outputs[i]]
	}
	return nil, s.writeStripe(stripe, selected, out)
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

// checkFor picks a chain-major plan's check chains (chainCheck). For each
// selected cell in turn it takes layout chains through the cell other
// than its repair chain, none with an unsolved member (data loss is never
// read); the one with the fewest members the stripe does not read anyway
// goes first — a member counts unless a repair chain fetches it, the plan
// rebuilds it or a check taken for an earlier cell reads it — ties in
// layout order. A lie in a chunk shows in a check chain's sum if the
// chunk is summed an odd number of times: once if the chain holds it,
// once more for each rebuilt member whose repair chain fetched it. So a
// chain is taken only if it shows a member of the cell's repair chain that
// no chain taken for the cell so far shows — the first usable one nearly
// always; a further one where the repair chain and the check chain share
// members (STAR's adjusters) or the check chain holds a second rebuilt
// cell. A chain taken for two cells is summed once. Without verify it
// picks none.
func (s *service) checkFor(plan *schemePlan) *chainCheck {
	selected, requests := plan.scheme.Selected, plan.scheme.TotalRequests()
	c := &chainCheck{}
	if s.cfg.NoVerify {
		c.folds = make([][]int, requests)
		return c
	}
	// What the plan does with each cell of the stripe, by CellIndex.
	type use struct {
		rebuilt  int // Selected index + 1; 0 if the plan rebuilds no such cell
		request  int // the chunk's first request + 1; 0 if no repair chain fetches it
		extra    int // c.extra index + 1; 0 if no check chain taken so far reads it
		unsolved bool
		summed   int  // the last candidate chain the cell's parity was taken for
		odd      bool // the cell is summed an odd number of times in that chain's test
		shown    int  // Selected index + 1 of the last cell this repair member was shown for
	}
	layout := s.code.Layout()
	uses := make([]use, layout.Cells())
	at := func(cell grid.Coord) *use { return &uses[s.code.CellIndex(cell)] }
	r := 0
	for i, sel := range selected {
		at(sel.Lost).rebuilt = i + 1
		for _, m := range sel.Fetch {
			if r++; at(m).request == 0 {
				at(m).request = r
			}
		}
	}
	for _, m := range plan.unsolved {
		at(m).unsolved = true
	}
	// unread counts a chain's members the stripe reads for nothing else, or
	// is -1 for a chain with an unsolved member.
	unread := func(ch *grid.Chain) (n int) {
		for _, m := range ch.Cells {
			switch u := at(m); {
			case u.unsolved:
				return -1
			case u.rebuilt == 0 && u.request == 0 && u.extra == 0:
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
			if !shown || slices.Contains(c.chains, ch) {
				continue
			}
			c.chains = append(c.chains, ch)
			for _, m := range ch.Cells {
				if u := at(m); u.rebuilt == 0 && u.request == 0 && u.extra == 0 {
					c.extra = append(c.extra, passSource{cell: m})
					u.extra = len(c.extra)
				}
			}
		}
	}
	slices.SortFunc(c.extra, func(a, b passSource) int { // store address order
		return cmp.Or(cmp.Compare(a.cell.Col, b.cell.Col), cmp.Compare(a.cell.Row, b.cell.Row))
	})
	for e, src := range c.extra {
		at(src.cell).extra = e + 1
	}

	// Route every member of every check chain to where its bytes come from:
	// a request, a rebuilt cell or an extra read, numbered in that order,
	// with all the lists in one array.
	rebuilt, extra := requests, requests+len(selected)
	from := func(m grid.Coord) int {
		switch u := at(m); {
		case u.rebuilt > 0:
			return rebuilt + u.rebuilt - 1
		case u.request > 0:
			return u.request - 1
		default:
			return extra + u.extra - 1
		}
	}
	end := make([]int, extra+len(c.extra)+1) // end[k] is where list k ends once filled
	for _, ch := range c.chains {
		for _, m := range ch.Cells {
			end[from(m)+1]++
		}
	}
	for k := 1; k < len(end); k++ {
		end[k] += end[k-1]
	}
	all := make([]int, end[len(end)-1])
	for j, ch := range c.chains {
		for _, m := range ch.Cells {
			k := from(m)
			all[end[k]] = j
			end[k]++
		}
	}
	lists, start := make([][]int, len(end)-1), 0
	for k := range lists {
		lists[k] = all[start:end[k]:end[k]]
		start = end[k]
	}
	c.folds, c.cells = lists[:rebuilt], lists[rebuilt:extra]
	for e := range c.extra {
		c.extra[e].folds = lists[extra+e]
	}
	return c
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

// fetchInto reads one source cell's bytes — from the byte cache on a
// hit, from the backend on a miss — and folds them into the XOR
// accumulator (copy for the chain's first member, XOR for the rest) and
// into sums[j] for every j in checks. Miss fetches use pooled buffers
// that flow directly into backend I/O; a buffer is kept only while the
// policy keeps the chunk resident.
func (s *service) fetchInto(stripe int, cell grid.Coord, acc chunk.Chunk, first bool, sums []chunk.Chunk, checks []int) error {
	id := cache.ChunkID{Stripe: stripe, Cell: cell}
	if s.policy != nil && s.policy.Request(id) {
		if buf, ok := s.bufs[id]; ok {
			s.m.CacheHits.Inc()
			fold(buf, acc, first, sums, checks)
			return nil
		}
		// Residency without bytes would be a bookkeeping bug; fail
		// loudly rather than reading stale data.
		return fmt.Errorf("rebuild: cache hit for %v with no buffered bytes", id)
	}
	if s.policy != nil {
		s.m.CacheMisses.Inc()
	}
	buf := s.pool.GetRaw()
	if err := s.readSource(AddrOf(stripe, cell), buf); err != nil {
		s.pool.Put(buf)
		return err
	}
	s.m.DiskReads.Inc()
	fold(buf, acc, first, sums, checks)
	if s.policy != nil && s.policy.Contains(id) {
		s.bufs[id] = buf
	} else {
		s.pool.Put(buf)
	}
	return nil
}

// readSource reads one surviving chunk into a pooled buffer. A valid
// chunk of another size cannot serve this array: it reads as corrupt.
func (s *service) readSource(a store.Addr, buf chunk.Chunk) error {
	n, err := s.cfg.Backend.ReadChunk(a, buf)
	if err == nil && n != len(buf) {
		err = &store.CorruptError{Addr: a, Err: fmt.Errorf("payload is %d bytes, manifest says %d", n, len(buf))}
	}
	return err
}

// stripeBufs returns n chunk buffers for evaluating one stripe, holding
// whatever the last stripe left in them. The service keeps them from one
// stripe to the next, so a run holds as many as its largest stripe needed
// and a stripe takes none from the pool.
func (s *service) stripeBufs(n int) []chunk.Chunk {
	for len(s.work) < n {
		s.work = append(s.work, s.pool.GetRaw())
	}
	return s.work[:n]
}

// dropBuf returns to the pool the bytes of a chunk the policy no longer
// holds: its eviction callback, and the escalation ladder's Invalidate.
func (s *service) dropBuf(id cache.ChunkID) {
	if buf, ok := s.bufs[id]; ok {
		s.pool.Put(buf)
		delete(s.bufs, id)
	}
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

// fold adds src to a chain's accumulator — a copy for its first member —
// and to sums[j] for every j in checks.
func fold(src, acc chunk.Chunk, first bool, sums []chunk.Chunk, checks []int) {
	if first {
		copy(acc, src)
	} else {
		chunk.XORInto(acc, src)
	}
	for _, j := range checks {
		chunk.XORInto(sums[j], src)
	}
}

func mergeCell(lost []grid.Coord, c grid.Coord) []grid.Coord {
	for _, have := range lost {
		if have == c {
			return lost
		}
	}
	lost = append(lost, c)
	sort.Slice(lost, func(i, j int) bool { return lost[i].Less(lost[j]) })
	return lost
}

func prioritiesFor(scheme *core.Scheme, stripe int) map[cache.ChunkID]int {
	out := make(map[cache.ChunkID]int, len(scheme.Priorities))
	for cell, pr := range scheme.Priorities {
		out[cache.ChunkID{Stripe: stripe, Cell: cell}] = pr
	}
	return out
}

func requestsFor(scheme *core.Scheme, stripe int) []cache.ChunkID {
	reqs := scheme.Requests()
	out := make([]cache.ChunkID, len(reqs))
	for i, r := range reqs {
		out[i] = cache.ChunkID{Stripe: stripe, Cell: r}
	}
	return out
}
