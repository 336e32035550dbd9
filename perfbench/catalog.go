package main

// The metric catalog: every name the benchmark reports, with its unit.
// BENCHMARK.json at the repository root lists the same names (a test
// keeps the two in step).

// Workload names.
const (
	wlCLIBatch       = "cli-batch"
	wlStreamWarm     = "stream-warm"
	wlCLIIncremental = "cli-incremental"
	wlPortalJobs     = "portal-jobs"
)

var workloads = []string{wlCLIBatch, wlStreamWarm, wlCLIIncremental, wlPortalJobs}

// metricDef is one reported metric. Bound applies to the end-to-end
// metrics only: the share of the parent's median by which the metric may
// get worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics a user of the system sees, measured
// with tracing off: the CPU the system spends on set-up and per 1,000
// lines, and its peak memory. The wall-clock figures (lines_per_s,
// op_p50_s, op_p90_s, the set-up's wall time) are printed beside them
// and reported by the traced run as bench.*, but not gated: on a shared
// host they move with the time the hypervisor steals, which process CPU
// time leaves out (README, "Run-to-run spread"). error_rate is 0 on a
// healthy run; the JSON's attempted/failed carry it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s_per_kline", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// builtinRules are the built-in rule IDs whose attributed time the
// traced run reports one by one; time attributed to any other rule (a
// rule added later) is reported as anonymizer.rule_time_s.other.
var builtinRules = []string{
	"S1-segment-alpha-nonalpha", "S2-segment-compound-words",
	"C1-strip-banner-blocks", "C2-strip-description-lines", "C3-strip-comment-lines",
	"M1-dialer-string-phone", "M2-snmp-community-secret", "M3-hostname-domain", "M4-username-password-key",
	"A1-router-bgp", "A2-redistribute-bgp", "A3-neighbor-remote-as", "A4-neighbor-local-as",
	"A5-confederation-identifier", "A6-confederation-peers", "A7-set-community", "A8-set-extcommunity",
	"A9-community-list-literal", "A10-community-list-regexp", "A11-as-path-prepend",
	"A12-as-path-access-list-regexp",
	"I1-address-netmask-pair", "I2-address-wildcard-pair", "I3-bare-address", "I4-slash-prefix",
	"I5-classful-network", "K1-bare-community-token", "L1-leak-highlight", "N1-name-position",
}

// layerDef is one per-layer metric and the workloads on which its layer
// runs; on every other workload it is reported as n/a.
type layerDef struct {
	metricDef
	On []string
}

var (
	onCLI    = []string{wlCLIBatch, wlCLIIncremental}
	onAll    = workloads
	onPortal = []string{wlPortalJobs}
)

// layer declares a per-layer metric for which lower is better: a time,
// a size, or a count of work or failures.
func layer(name, unit string, on []string) layerDef {
	return layerDef{metricDef{Name: name, Unit: unit, Better: "lower"}, on}
}

// higher declares a per-layer metric for which higher is better.
func higher(name, unit string, on []string) layerDef {
	d := layer(name, unit, on)
	d.Better = "higher"
	return d
}

// perLayer lists the traced run's metrics. Times and counts are means
// per traced op of the workload (one CLI process, one unit streamed, one
// portal job) unless the name says otherwise; batch.files_failed,
// batch.files_quarantined and jobs.rejected are totals.
func perLayer() []layerDef {
	defs := []layerDef{
		layer("cli.outside_corpus_s", "s", onCLI),
		layer("cli.cpu_sys_s", "s", onCLI),
		layer("batch.census_replay_s", "s", []string{wlCLIBatch, wlCLIIncremental, wlStreamWarm}),
		layer("batch.rewrite_wall_s", "s", onCLI),
		layer("batch.gate_wall_s", "s", onCLI),
		layer("batch.files_failed", "count", onAll),
		layer("batch.files_quarantined", "count", []string{wlCLIBatch, wlCLIIncremental, wlPortalJobs}),
		higher("incremental.lines_reused", "count", []string{wlCLIIncremental}),
		layer("incremental.lines_rewritten", "count", []string{wlCLIIncremental}),
		higher("incremental.reuse_ratio", "ratio", []string{wlCLIIncremental}),
		higher("incremental.files.reused", "count", []string{wlCLIIncremental}),
		layer("incremental.files.partial", "count", []string{wlCLIIncremental}),
		layer("incremental.files.full", "count", []string{wlCLIIncremental}),
		layer("incremental.cache_bytes", "bytes", []string{wlCLIIncremental}),
	}
	for _, st := range stages {
		defs = append(defs,
			layer("anonymizer."+st+"_busy_s", "s", onAll),
			layer("anonymizer."+st+"_n", "count", onAll))
	}
	for _, id := range builtinRules {
		defs = append(defs, layer("anonymizer.rule_time_s."+id, "s", onAll))
	}
	defs = append(defs,
		layer("anonymizer.rule_time_s.other", "s", onAll),
		layer("anonymizer.tokens_hashed", "count", onAll),
		layer("anonymizer.tokens_passed", "count", onAll),
		layer("anonymizer.words", "count", onAll),
		layer("anonymizer.allocs_per_line", "count", []string{wlStreamWarm}),
		layer("anonymizer.alloc_bytes_per_line", "bytes", []string{wlStreamWarm}),
		higher("cregex.cache_hits", "count", onAll),
		layer("cregex.cache_misses", "count", onAll),
		higher("cregex.hit_ratio", "ratio", onAll),
		layer("cregex.cold_fill_s", "s", []string{wlStreamWarm}),
		layer("ipanon.ips_mapped", "count", onAll),
		layer("ipanon.ipmap_entries", "count", onAll),
		layer("ipanon.remaps", "count", onAll),
		layer("asn.asns_mapped", "count", onAll),
		layer("asn.communities_mapped", "count", onAll),
		layer("asn.cycle_walks", "count", onAll),
		layer("store.ledger_bytes", "bytes", onCLI),
		layer("store.segments", "count", onCLI),
		layer("portal.submit_s_p50", "s", onPortal),
		layer("portal.request_busy_s", "s", onPortal),
		layer("portal.polls_per_job", "count", onPortal),
		layer("jobs.wait_s_mean", "s", onPortal),
		layer("jobs.run_s_mean", "s", onPortal),
		layer("jobs.rejected", "count", onPortal),
		layer("bench.trace_overhead_frac", "ratio", onAll),
		layer("bench.span_nesting_err_frac", "ratio", onCLI),
		layer("bench.error_rate", "ratio", onAll),
		higher("bench.op_samples", "count", onAll),
		layer("bench.setup_wall_s", "s", onAll),
		higher("bench.lines_per_s", "lines/s", onAll),
		layer("bench.op_p50_s", "s", onAll),
		layer("bench.op_p90_s", "s", onAll),
	)
	return defs
}

// stages are the engine pipeline stages observed into
// confanon_stage_seconds.
var stages = []string{"prescan", "rewrite", "leakreport"}

func (d layerDef) runsOn(workload string) bool {
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}
