package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"fbf/internal/cache"
	"fbf/internal/chunk"
	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/rebuild"
	"fbf/internal/stats"
	"fbf/internal/store"
	"fbf/internal/telemetry"
	"fbf/internal/verify"
)

// rowsFor lists the traced run's configurations of workload w. The
// first row is always the defaults.
func rowsFor(w *workload) []row {
	if w.sim {
		return []row{
			{name: "base", sim: func(*rebuild.Config) {}},
			{name: "lru", sim: func(c *rebuild.Config) { c.Policy = "lru" }},
		}
	}
	rows := []row{
		{name: "base", service: func(*rebuild.ServiceConfig) {}},
		{name: "noverify", service: func(c *rebuild.ServiceConfig) { c.NoVerify = true }},
		{name: "cache-off", service: func(c *rebuild.ServiceConfig) { c.CacheChunks = -1 }},
		{name: "telemetry", service: func(c *rebuild.ServiceConfig) {
			c.Backend = store.Instrument(c.Backend)
			c.Metrics = telemetry.NewRebuildMetrics(telemetry.NewRegistry())
		}},
	}
	if w.dir {
		rows = append(rows, row{name: "journal-off", service: func(c *rebuild.ServiceConfig) { c.JournalPath = "" }})
	}
	if w.partial {
		// The conventional recovery the paper compares against:
		// horizontal chains, no sharing, LRU.
		rows = append(rows, row{name: "typical-lru", service: func(c *rebuild.ServiceConfig) {
			c.Strategy, c.Policy = core.StrategyTypical, "lru"
		}})
	}
	return rows
}

// calibrate spins chunk.XORInto over sc.calibBytes at the workload's
// chunk size: the host-speed yardstick of the run header and the
// ceiling of the chunk layer.
func calibrate(sc scale) (ms, gbps float64) {
	acc, src := chunk.New(sc.chunkSize), chunk.New(sc.chunkSize)
	for i := range src {
		src[i] = byte(i * 31)
	}
	n := int(sc.calibBytes / int64(sc.chunkSize))
	start := time.Now()
	for i := 0; i < n; i++ {
		chunk.XORInto(acc, src)
	}
	d := time.Since(start)
	return float64(d) / float64(time.Millisecond), float64(n) * float64(sc.chunkSize) / 1e9 / d.Seconds()
}

// walls returns the samples' wall times in seconds.
func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall.Seconds()
	}
	return out
}

// arrayLayers fills the per-layer metrics of a store workload from the
// traced rows and from standalone calls into each layer, made on the
// damaged store the last repetition left.
func arrayLayers(L *metricSet, a *array, w *workload, tr *tracer, untraced []sample, byRow map[string][]sample, xorGBps float64) error {
	base := byRow["base"]
	for _, s := range base {
		ops, covered, err := tr.storeOps(s.run)
		if err != nil {
			return err
		}
		wall := s.wall.Seconds()
		for _, op := range []string{"read", "write", "stat", "list"} {
			o := ops["store."+op]
			if o == nil {
				o = &opTimes{}
			}
			L.add("store."+op+"s", float64(len(o.us)))
			L.add("store."+op+"_s", o.total.Seconds())
			if op == "read" || op == "write" {
				L.add("store."+op+"_p50_us", percentile(o.us, 50))
				L.addTail("store."+op+"_p99_us", o.us)
			}
		}
		L.add("store.busy_frac", covered.Seconds()/wall)
		L.add("rebuild.run_s", wall)
		L.add("rebuild.self_s", wall-covered.Seconds())
		L.add("rebuild.self_frac", 1-covered.Seconds()/wall)
		L.add("rebuild.stripes_per_s", float64(s.svc.StripesRepaired)/wall)

		gaps := make([]float64, 0, len(s.stripes))
		for i := 1; i < len(s.stripes); i++ {
			gaps = append(gaps, float64(s.stripes[i]-s.stripes[i-1])/float64(time.Millisecond))
		}
		sort.Float64s(gaps)
		L.add("rebuild.stripe_p50_ms", percentile(gaps, 50))
		L.addTail("rebuild.stripe_p99_ms", gaps)
	}

	res := base[0].svc
	chunks := float64(res.ChunksRebuilt)
	L.add("cache.hits", float64(res.CacheHits))
	L.add("cache.misses", float64(res.CacheMisses))
	L.add("cache.hit_ratio", float64(res.CacheHits)/float64(res.CacheHits+res.CacheMisses))
	L.add("verify.reads_per_chunk", float64(res.VerifyReads)/chunks)
	L.add("rebuild.disk_reads_per_chunk", float64(res.DiskReads)/chunks)
	L.add("rebuild.decoded_frac", float64(res.ChunksDecoded)/chunks)
	L.add("rebuild.escalations", float64(res.Escalations))
	for _, s := range untraced {
		L.add("rebuild.allocs_per_chunk", float64(s.mallocs)/chunks)
		L.add("rebuild.alloc_bytes_per_chunk", float64(s.allocBytes)/chunks)
	}

	// Each option's cost is the difference between two rows' walls.
	baseWall := median(walls(base))
	rowWall := func(name string) float64 { return median(walls(byRow[name])) }
	L.add("trace.overhead_frac", stats.Gain(median(walls(untraced)), baseWall))
	L.add("verify.cost_s", baseWall-rowWall("noverify"))
	L.add("verify.cost_frac", stats.Improvement(baseWall, rowWall("noverify")))
	L.add("cache.off_delta_s", rowWall("cache-off")-baseWall)
	L.add("telemetry.overhead_frac", stats.Gain(baseWall, rowWall("telemetry")))
	if w.dir {
		L.add("journal.cost_s", baseWall-rowWall("journal-off"))
	}
	if w.partial {
		L.add("core.read_saving_frac", stats.Improvement(float64(byRow["typical-lru"][0].svc.DiskReads), float64(res.DiskReads)))
		L.add("core.wall_saving_frac", stats.Improvement(rowWall("typical-lru"), baseWall))
	}

	// Standalone: scan, then plan and replay the patterns it found.
	var report *rebuild.DamageReport
	d, err := tr.timed("rebuild.scan", func() (err error) {
		report, err = rebuild.ScanStore(a.backend, a.m, false)
		return err
	})
	if err != nil {
		return err
	}
	L.add("rebuild.scan_s", d.Seconds())
	if d, err = tr.timed("rebuild.scrub_scan", func() error {
		_, err := rebuild.ScanStore(a.backend, a.m, true)
		return err
	}); err != nil {
		return err
	}
	L.add("rebuild.scrub_scan_s", d.Seconds())
	var dry *rebuild.ServiceResult
	if d, err = tr.timed("rebuild.dryrun", func() (err error) {
		dry, err = rebuild.RunService(rebuild.ServiceConfig{Backend: a.backend, Manifest: a.m, Strategy: core.StrategyLooped, DryRun: true})
		return err
	}); err != nil {
		return err
	}
	L.add("rebuild.dryrun_s", d.Seconds())
	L.add("core.planned_reads_per_chunk", float64(dry.PlannedReads)/float64(dry.PlannedChunks))

	type plan struct {
		lost   []grid.Coord
		scheme *core.Scheme
		oracle *verify.Oracle
	}
	plans := map[string]*plan{}
	var order []*plan     // distinct patterns, first seen first
	var perStripe []*plan // report.Stripes[i]'s pattern
	for _, sd := range report.Stripes {
		lost := sd.Lost()
		key := fmt.Sprint(lost)
		p := plans[key]
		if p == nil {
			p = &plan{lost: lost}
			plans[key] = p
			order = append(order, p)
		}
		perStripe = append(perStripe, p)
	}
	L.add("core.patterns", float64(len(order)))
	if d, err = tr.timed("core.plan", func() error {
		for _, p := range order {
			e := core.PartialStripeError{Disk: p.lost[0].Col, Row: p.lost[0].Row, Size: len(p.lost)}
			scheme, _, err := core.RegenerateScheme(a.code, e, p.lost, nil, core.StrategyLooped)
			if err != nil {
				return err
			}
			p.scheme = scheme
		}
		return nil
	}); err != nil {
		return err
	}
	L.add("core.plan_s", d.Seconds())
	L.add("core.plan_us_per_pattern", float64(d)/float64(time.Microsecond)/float64(len(order)))
	if d, err = tr.timed("verify.oracle_build", func() error {
		for _, p := range order {
			if p.oracle, err = verify.NewOracle(a.code, p.lost); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	L.add("verify.oracle_build_us_per_pattern", float64(d)/float64(time.Microsecond)/float64(len(order)))

	// XOR volume the plan implies: each chain folds its fetches into an
	// accumulator (the first is a copy) and the oracle XORs every one of
	// its sources.
	var xors int
	for _, p := range perStripe {
		for _, sel := range p.scheme.Selected {
			xors += max(len(sel.Fetch)-1, 0) + len(p.oracle.Sources(sel.Lost))
		}
	}
	xorBytes := float64(xors) * float64(a.m.ChunkSize)
	L.add("chunk.xor_bytes_per_chunk", xorBytes/chunks)
	L.add("chunk.xor_est_s", xorBytes/1e9/xorGBps)

	// The repetition's exact request stream through a fresh policy, no
	// bytes behind it: what the cache's own bookkeeping costs.
	policy, err := cache.New("fbf", cacheChunks)
	if err != nil {
		return err
	}
	prios := make([]map[cache.ChunkID]int, len(perStripe))
	reqs := make([][]cache.ChunkID, len(perStripe))
	requests := 0
	for i, p := range perStripe {
		stripe := report.Stripes[i].Stripe
		prios[i] = make(map[cache.ChunkID]int, len(p.scheme.Priorities))
		for cell, pr := range p.scheme.Priorities {
			prios[i][cache.ChunkID{Stripe: stripe, Cell: cell}] = pr
		}
		for _, cell := range p.scheme.Requests() {
			reqs[i] = append(reqs[i], cache.ChunkID{Stripe: stripe, Cell: cell})
		}
		requests += len(reqs[i])
	}
	d, _ = tr.timed("cache.replay", func() error {
		for i := range reqs {
			policy.(cache.PriorityAware).SetPriorities(prios[i])
			for _, id := range reqs[i] {
				policy.Request(id)
			}
		}
		return nil
	})
	L.add("cache.replay_ns_per_req", float64(d)/float64(requests))

	if w.dir {
		return journalLayer(L, a, tr, len(a.lost)/len(report.Stripes))
	}
	return nil
}

// journalLayer times the write-ahead journal alone, in the workload's
// directory: batches of one stripe's worth of commit records, each
// followed by the Sync the service issues per stripe.
func journalLayer(L *metricSet, a *array, tr *tracer, commitsPerStripe int) error {
	const batches = 50
	jn, _, err := rebuild.OpenJournal(filepath.Join(a.root, "standalone.journal"))
	if err != nil {
		return err
	}
	defer jn.Close() // a timing scratch file nobody reads back; a.close removes it
	for b := 0; b < batches; b++ {
		d, err := tr.timed("journal.append", func() error {
			for i := 0; i < commitsPerStripe; i++ {
				if err := jn.AppendCommit(store.Addr{Stripe: b, Chunk: i}, uint32(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		L.add("journal.append_us", float64(d)/float64(time.Microsecond)/float64(commitsPerStripe))
		if d, err = tr.timed("journal.sync", jn.Sync); err != nil {
			return err
		}
		L.add("journal.sync_us", float64(d)/float64(time.Microsecond))
	}
	return nil
}

// simLayers fills the per-layer metrics of sim-sor.
func simLayers(L *metricSet, untraced []sample, byRow map[string][]sample) {
	base, lru := byRow["base"], byRow["lru"]
	for _, s := range base {
		groups := float64(s.sim.Groups)
		L.add("sim.groups_per_s", groups/s.wall.Seconds())
		L.add("sim.host_us_per_group", float64(s.wall)/float64(time.Microsecond)/groups)
		L.add("sim.host_ns_per_request", float64(s.wall)/float64(s.sim.TotalRequests))
		L.add("sim.schemegen_wall_s", s.sim.SchemeGenWall.Seconds())
		L.add("rebuild.run_s", s.wall.Seconds())
	}
	for _, s := range untraced {
		L.add("sim.allocs_per_group", float64(s.mallocs)/float64(s.sim.Groups))
	}
	res := base[0].sim
	L.add("sim.recon_ms", res.Makespan.Milliseconds())
	L.add("sim.disk_reads", float64(res.DiskReads))
	L.add("sim.hit_ratio", res.HitRatio())
	L.add("sim.lru_recon_ms", lru[0].sim.Makespan.Milliseconds())
	L.add("sim.recon_saving_frac", stats.Improvement(float64(lru[0].sim.Makespan), float64(res.Makespan)))
	L.add("trace.overhead_frac", stats.Gain(median(walls(untraced)), median(walls(base))))
}
