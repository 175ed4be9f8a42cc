package main

import "fmt"

// metricDef names one metric and its unit. The two tables below are the
// program's side of BENCHMARK.json; main_test.go holds them equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the rebuild sees. Every workload
// reports every one of them (the simulator workload on its own clock,
// see README.md).
var endToEnd = []metricDef{
	{"rebuild_mbps", "MB/s"},
	{"read_amp", "reads/chunk"},
	{"recon_ms_per_chunk", "ms/chunk"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, one prefix per package. A
// metric that does not apply to a workload (every store.* on sim-sor,
// journal.* off the dir workload, sim.* off sim-sor) reads 0.
var perLayer = []metricDef{
	{"chunk.xor_gbps", "GB/s"},
	{"chunk.xor_bytes_per_chunk", "bytes/chunk"},
	{"chunk.xor_est_s", "s"},

	{"store.reads", "count"},
	{"store.writes", "count"},
	{"store.stats", "count"},
	{"store.lists", "count"},
	{"store.read_s", "s"},
	{"store.write_s", "s"},
	{"store.stat_s", "s"},
	{"store.list_s", "s"},
	{"store.read_p50_us", "us"},
	{"store.read_p99_us", "us"},
	{"store.write_p50_us", "us"},
	{"store.write_p99_us", "us"},
	{"store.busy_frac", "fraction"},

	{"cache.hit_ratio", "fraction"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.replay_ns_per_req", "ns"},
	{"cache.off_delta_s", "s"},

	{"core.patterns", "count"},
	{"core.plan_s", "s"},
	{"core.plan_us_per_pattern", "us"},
	{"core.planned_reads_per_chunk", "reads/chunk"},
	{"core.read_saving_frac", "fraction"},
	{"core.wall_saving_frac", "fraction"},

	{"verify.reads_per_chunk", "reads/chunk"},
	{"verify.oracle_build_us_per_pattern", "us"},
	{"verify.cost_s", "s"},
	{"verify.cost_frac", "fraction"},

	{"rebuild.run_s", "s"},
	{"rebuild.scan_s", "s"},
	{"rebuild.scrub_scan_s", "s"},
	{"rebuild.dryrun_s", "s"},
	{"rebuild.self_s", "s"},
	{"rebuild.self_frac", "fraction"},
	{"rebuild.disk_reads_per_chunk", "reads/chunk"},
	{"rebuild.decoded_frac", "fraction"},
	{"rebuild.escalations", "count"},
	{"rebuild.stripes_per_s", "1/s"},
	{"rebuild.stripe_p50_ms", "ms"},
	{"rebuild.stripe_p99_ms", "ms"},
	{"rebuild.allocs_per_chunk", "allocs/chunk"},
	{"rebuild.alloc_bytes_per_chunk", "bytes/chunk"},

	{"journal.cost_s", "s"},
	{"journal.append_us", "us"},
	{"journal.sync_us", "us"},

	{"telemetry.overhead_frac", "fraction"},

	{"sim.groups_per_s", "groups/s"},
	{"sim.recon_ms", "ms"},
	{"sim.disk_reads", "count"},
	{"sim.host_us_per_group", "us"},
	{"sim.host_ns_per_request", "ns"},
	{"sim.hit_ratio", "fraction"},
	{"sim.schemegen_wall_s", "s"},
	{"sim.allocs_per_group", "allocs/group"},
	{"sim.lru_recon_ms", "ms"},
	{"sim.recon_saving_frac", "fraction"},

	{"trace.overhead_frac", "fraction"},
	{"host.calib_ms", "ms"},
}

// metricSet collects one run's values for one of the two tables; each
// name keeps every sample taken so the report can print quartiles.
type metricSet struct {
	defs   []metricDef
	values map[string][]float64
	notes  map[string]string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string][]float64, len(defs)), notes: map[string]string{}}
}

// add records samples of a metric; a name outside the table is a bug in
// the benchmark, not an input error.
func (s *metricSet) add(name string, vs ...float64) {
	for _, d := range s.defs {
		if d.name == name {
			s.values[name] = append(s.values[name], vs...)
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in the table", name))
}

// addTail records the tail latency of sorted samples under a p99 name:
// the 99th percentile when a thousand samples support it, else the
// highest percentile that has ten samples beyond it, which the note
// then names with the sample count.
func (s *metricSet) addTail(name string, sorted []float64) {
	p, v := tail(sorted)
	s.add(name, v)
	s.notes[name] = fmt.Sprintf("p%d of %d samples", p, len(sorted))
}
