package telemetry

import (
	"fbf/internal/store"
)

// RegisterBackend exposes an instrumented backend's counters on reg:
//
//	fbf_store_ops{op=...}              calls completed, per operation
//	fbf_store_errors{op=...,type=...}  failures by taxonomy class
//	                                   (notfound / corrupt / io)
//	fbf_store_bytes{op=...}            payload bytes moved (read, write)
//	fbf_store_op_seconds{op=...}       per-op wall-clock latency
//	                                   histogram, throttle wait included
//
// The series are CounterFunc/HistogramFunc bridges over the wrapper's
// own counters — nothing is copied until a scrape asks.
func RegisterBackend(reg *Registry, in *store.Instrumented) {
	for _, op := range store.Ops() {
		op := op
		opLabel := Label{Key: "op", Value: op.String()}
		reg.CounterFunc("fbf_store_ops", "Backend operations completed.",
			func() float64 { return float64(in.Stats(op).Ops) }, opLabel)
		for _, class := range []struct {
			name string
			read func(store.OpStats) uint64
		}{
			{"notfound", func(s store.OpStats) uint64 { return s.NotFound }},
			{"corrupt", func(s store.OpStats) uint64 { return s.Corrupt }},
			{"io", func(s store.OpStats) uint64 { return s.IO }},
		} {
			class := class
			reg.CounterFunc("fbf_store_errors", "Backend operation failures by error class.",
				func() float64 { return float64(class.read(in.Stats(op))) },
				opLabel, Label{Key: "type", Value: class.name})
		}
		if op == store.OpRead || op == store.OpWrite {
			reg.CounterFunc("fbf_store_bytes", "Payload bytes moved through the backend.",
				func() float64 { return float64(in.Stats(op).Bytes) }, opLabel)
		}
		reg.HistogramFunc("fbf_store_op_seconds", "Backend operation wall-clock latency in seconds.",
			func() HistogramSnapshot {
				s := in.Stats(op)
				return HistogramSnapshot{Bounds: store.InstrumentBounds(), Counts: s.LatencyCounts, Sum: s.LatencySum}
			}, opLabel)
	}
}

// RegisterThrottle exposes a token-bucket throttle's budget state:
//
//	fbf_throttle_rate_bytes_per_sec  configured bandwidth cap
//	fbf_throttle_tokens_bytes        current bucket level (negative in debt)
//	fbf_throttle_waits               operations that slept for budget
//	fbf_throttle_waited_seconds      total time slept
func RegisterThrottle(reg *Registry, t *store.Throttle) {
	reg.GaugeFunc("fbf_throttle_rate_bytes_per_sec", "Configured rebuild bandwidth cap in bytes per second.",
		func() float64 { return t.Stats().Rate })
	reg.GaugeFunc("fbf_throttle_tokens_bytes", "Token bucket level in bytes; negative while repaying debt.",
		func() float64 { return t.Stats().Tokens })
	reg.CounterFunc("fbf_throttle_waits", "Operations that slept waiting for bandwidth budget.",
		func() float64 { return float64(t.Stats().Waits) })
	reg.CounterFunc("fbf_throttle_waited_seconds", "Total time spent sleeping for bandwidth budget, in seconds.",
		func() float64 { return t.Stats().Waited.Seconds() })
}

// RebuildMetrics holds the cells rebuild.RunService counts on while it
// repairs an array — its only event counters: ServiceResult reports a
// run as the cells' change over it, so one set may be shared across
// passes. The zero value is ready to use; NewRebuildMetrics also exports
// it on a registry.
type RebuildMetrics struct {
	StripesPlanned Counter // damaged stripes ordered for repair, cumulative across passes
	StripesDone    Counter // stripes fully repaired
	ChunksRebuilt  Counter // chunks recovered and written back
	ChunksVerified Counter // recovered chunks written under the pre-write parity-chain zero test
	ChunksDecoded  Counter // chunks rebuilt via the decoder fallback rather than a single chain

	DiskReads    Counter // source chunks fetched from the backend
	VerifyReads  Counter // backend reads issued for the zero test alone (chain members not in the byte cache)
	BytesWritten Counter // recovered payload bytes written

	Escalations   Counter // surviving chunks found unreadable mid-chain
	Regenerations Counter // recovery-scheme regenerations after an escalation

	JournalRecords Counter // write-ahead journal records appended
	ResumedCommits Counter // journal chunk commits found on resume

	ScanMissing    Gauge // missing chunks found by the latest scan
	ScanCorrupt    Gauge // corrupt chunks found by the latest scan
	DataLossChunks Gauge // chunks declared unrecoverable by the latest pass
	Percent        Gauge // latest pass progress, 0-100
}

// NewRebuildMetrics registers the rebuild service's metric families on
// reg and returns the producer cells.
func NewRebuildMetrics(reg *Registry) *RebuildMetrics {
	m := &RebuildMetrics{}
	for _, c := range []struct {
		cell *Counter
		name string
		help string
	}{
		{&m.StripesPlanned, "fbf_rebuild_stripes_planned", "Damaged stripes ordered for repair, cumulative across passes."},
		{&m.StripesDone, "fbf_rebuild_stripes_done", "Stripes fully repaired."},
		{&m.ChunksRebuilt, "fbf_rebuild_chunks_rebuilt", "Chunks recovered and written back."},
		{&m.ChunksVerified, "fbf_rebuild_chunks_verified", "Recovered chunks that passed the pre-write check (the parity-chain zero test)."},
		{&m.ChunksDecoded, "fbf_rebuild_chunks_decoded", "Chunks rebuilt via the decoder fallback rather than a single chain."},
		{&m.DiskReads, "fbf_rebuild_disk_reads", "Source chunks fetched from the backend."},
		{&m.VerifyReads, "fbf_rebuild_verify_reads", "Backend reads issued for the pre-write check alone."},
		{&m.BytesWritten, "fbf_rebuild_bytes_written", "Recovered payload bytes written."},
		{&m.Escalations, "fbf_rebuild_escalations", "Surviving chunks found unreadable mid-chain."},
		{&m.Regenerations, "fbf_rebuild_regenerations", "Recovery-scheme regenerations after an escalation."},
		{&m.JournalRecords, "fbf_rebuild_journal_records", "Write-ahead journal records appended."},
		{&m.ResumedCommits, "fbf_rebuild_resumed_commits", "Journal chunk commits found on resume."},
	} {
		reg.CounterFunc(c.name, c.help, cellValue(c.cell))
	}
	for _, g := range []struct {
		cell *Gauge
		name string
		help string
	}{
		{&m.ScanMissing, "fbf_rebuild_scan_missing_chunks", "Missing chunks found by the latest scan."},
		{&m.ScanCorrupt, "fbf_rebuild_scan_corrupt_chunks", "Corrupt chunks found by the latest scan."},
		{&m.DataLossChunks, "fbf_rebuild_data_loss_chunks", "Chunks declared unrecoverable by the latest pass."},
		{&m.Percent, "fbf_rebuild_progress_percent", "Latest pass progress, 0-100."},
	} {
		reg.GaugeFunc(g.name, g.help, g.cell.Value)
	}
	return m
}

// cellValue bridges an embedded Counter cell into a CounterFunc read.
// Registering the cells as funcs keeps the structs plain values, usable
// without a registry, while sharing one registry path.
func cellValue(c *Counter) func() float64 {
	return func() float64 { return float64(c.Value()) }
}

// DaemonMetrics holds the cells rebuild.RunDaemon counts its passes on
// (DaemonResult reports their change over the loop), plus the progress
// tracker behind /progress, which must not be nil.
type DaemonMetrics struct {
	Scans    Counter // scan + repair passes started
	Rebuilds Counter // passes that repaired damage
	Retries  Counter // passes that failed and scheduled a backoff retry

	Backoff  Gauge // current backoff delay in seconds (0 when healthy)
	Failures Gauge // consecutive failed passes

	Tracker *ProgressTracker // live phase + per-stripe progress
}

// Progress assembles the /progress payload: the tracker's view of the
// pass in flight plus the pass counts, read from the cells that book
// them.
func (m *DaemonMetrics) Progress() ProgressSnapshot {
	snap := m.Tracker.Snapshot()
	snap.Scans, snap.Rebuilds = int(m.Scans.Value()), int(m.Rebuilds.Value())
	return snap
}

// NewDaemonMetrics registers the watch daemon's metric families on reg
// and returns the producer cells.
func NewDaemonMetrics(reg *Registry) *DaemonMetrics {
	m := &DaemonMetrics{Tracker: NewProgressTracker()}
	reg.CounterFunc("fbf_daemon_scans", "Scan and repair passes started.", cellValue(&m.Scans))
	reg.CounterFunc("fbf_daemon_rebuilds", "Passes that repaired damage.", cellValue(&m.Rebuilds))
	reg.CounterFunc("fbf_daemon_retries", "Failed passes that scheduled a backoff retry.", cellValue(&m.Retries))
	reg.GaugeFunc("fbf_daemon_backoff_seconds", "Current backoff delay in seconds; 0 while healthy.", m.Backoff.Value)
	reg.GaugeFunc("fbf_daemon_consecutive_failures", "Consecutive failed passes.", m.Failures.Value)
	return m
}
