// Command perfbench is confanon's end-to-end benchmark. It drives the
// system the four ways its users do — the confanon CLI once per owner, a
// long-lived library caller streaming through a warm Program, the CLI's
// -incremental re-run, and the confportal job API — over inputs it
// generates with internal/netgen from a seed, checks every output, and
// prints the metrics named in BENCHMARK.json. See README.md.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload cli-batch --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, and the run interleaves traced and untraced work so the tracing
// overhead is measured in the same run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its workload's set-up; the
// reported setup_s is the median. Set-ups that take milliseconds
// (cli-batch's start-up probe, portal start) repeat cheapSetupReps
// times: one slow start then moves their median less.
const (
	setupReps      = 5
	cheapSetupReps = 25
)

// config is one run's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Bin      string // directory holding confanon and confportal
	Work     string // this run's scratch directory
	Procs    int    // CLI workers: nproc
	// Clients is portal-jobs' client, connection and job-worker count:
	// nproc - 1, at least 1. Its clients run beside the portal, polling
	// every few milliseconds, so one CPU is left to them and to the
	// portal's request handling rather than oversubscribed.
	Clients int
}

// result is what one workload run measured.
type result struct {
	// Setup holds the CPU seconds (user plus sys) the system under test
	// spent in each set-up repetition, SetupWall the wall seconds of the
	// same repetitions.
	Setup, SetupWall []float64
	// SetupHow says how setup_s derives from Setup when it is not the
	// median of the repetitions.
	SetupHow string
	// Ops are the untraced op latencies (seconds); Lines and Busy are the
	// input lines those ops completed and the wall seconds they took, and
	// CPU is the system under test's CPU seconds over them.
	Ops   []float64
	Lines float64
	Busy  float64
	// Rates are the lines per second of each complete round (every unit
	// once) or window slice; lines_per_s is their median, so one noisy
	// stretch of a run moves it less than a total would.
	Rates                 []float64
	roundLines, roundBusy float64
	CPU                   float64
	PeakRSSKB             int64
	procRSSKB             []float64 // per-process peaks of the CLI workloads
	Tally                 tally
	// Traced lines and wall, set in trace mode for the overhead.
	TracedLines, TracedBusy float64
	Layers                  map[string]float64
	Notes                   []string
}

// linesPerS is the median round rate, or the whole run's rate when not
// one round completed.
func (r *result) linesPerS() float64 {
	if len(r.Rates) > 0 {
		return median(r.Rates)
	}
	return rate(r.Lines, r.Busy)
}

func rate(lines, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return lines / secs
}

// countUntraced books one untraced op of a sequential workload.
func (r *result) countUntraced(lines int, secs float64) {
	r.Ops = append(r.Ops, secs)
	r.Lines += float64(lines)
	r.Busy += secs
	r.roundLines += float64(lines)
	r.roundBusy += secs
}

// closeRound ends a round of a sequential workload: every unit once.
func (r *result) closeRound() {
	if r.roundBusy > 0 {
		r.Rates = append(r.Rates, r.roundLines/r.roundBusy)
	}
	r.roundLines, r.roundBusy = 0, 0
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var seconds int
	var trace int
	var streamChild string
	var launcher bool
	flag.StringVar(&cfg.Workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.Bin, "bin", "", "directory holding the confanon and confportal binaries")
	flag.StringVar(&cfg.Work, "work", "", "scratch directory (a per-run subdirectory is created and removed)")
	flag.StringVar(&streamChild, "stream-child", "", "internal: run the stream-warm measurement over this input directory")
	flag.BoolVar(&launcher, "exec-child", false, "internal: run the command after -- and print its wall time and rusage as JSON")
	flag.Parse()
	if launcher {
		return execChild(flag.Args())
	}
	cfg.Seconds = float64(seconds)
	cfg.Trace = trace == 1
	cfg.Procs = runtime.NumCPU()
	cfg.Clients = max(1, cfg.Procs-1)

	if streamChild != "" {
		return runStreamChild(streamChild, cfg)
	}
	if seconds < 1 || (trace != 0 && trace != 1) || cfg.Bin == "" || cfg.Work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seed, --seconds >= 1, --trace 0|1, -bin and -work")
		return 2
	}
	measure := map[string]func(context.Context, config, *corpusSet) (*result, error){
		wlCLIBatch:       runCLIBatch,
		wlStreamWarm:     runStreamWarm,
		wlCLIIncremental: runCLIIncremental,
		wlPortalJobs:     runPortalJobs,
	}[cfg.Workload]
	if measure == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.Workload, strings.Join(workloads, ", "))
		return 2
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(cfg.Work, cfg.Workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.Work = work
	if cfg.Bin, err = filepath.Abs(cfg.Bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d procs=%d clients=%d\n", cfg.Workload, cfg.Seed, seconds, trace, cfg.Procs, cfg.Clients)
	fmt.Println(hostLine())
	cs := buildCorpus(cfg.Seed)
	fmt.Println(cs)

	steal0, total0 := hostTicks()
	res, err := measure(context.Background(), cfg, cs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	// Time the hypervisor gave other guests: on a shared host it is the
	// first thing to check when a run reads slow.
	if steal1, total1 := hostTicks(); total1 > total0 {
		fmt.Printf("host: steal %.1f%% of CPU time during the run\n", 100*(steal1-steal0)/(total1-total0))
	}
	return report(cfg, res)
}

// report prints the human-readable summary and, last, the JSON result.
func report(cfg config, res *result) int {
	metrics := map[string]map[string]any{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	if cfg.Trace {
		layers := res.Layers
		if layers == nil {
			layers = map[string]float64{}
		}
		layers["bench.error_rate"] = res.Tally.errorRate()
		layers["bench.op_samples"] = float64(res.Tally.Attempted)
		layers["bench.setup_wall_s"] = median(res.SetupWall)
		layers["bench.lines_per_s"] = res.linesPerS()
		if lat := summarize(res.Ops); lat.N > 0 {
			layers["bench.op_p50_s"] = lat.P50
			layers["bench.op_p90_s"] = lat.P90
			fmt.Printf("untraced ops: op_p90_s %.6g s %s\n", lat.P90, p90Note(lat))
		}
		if res.TracedBusy > 0 && res.Lines > 0 {
			layers["bench.trace_overhead_frac"] = 1 - rate(res.TracedLines, res.TracedBusy)/rate(res.Lines, res.Busy)
		}
		fmt.Println("per-layer (traced run):")
		for _, d := range perLayer() {
			v, ok := layers[d.Name]
			if !d.runsOn(cfg.Workload) || !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Printf("  %-52s %14s %s\n", d.Name, "n/a", d.Unit)
				v = 0
			} else {
				fmt.Printf("  %-52s %14.6g %s\n", d.Name, v, d.Unit)
			}
			put(d.Name, d.Unit, v)
		}
	} else {
		lat := summarize(res.Ops)
		e2e := map[string]float64{
			"setup_s":         median(res.Setup),
			"cpu_s_per_kline": res.CPU / (res.Lines / 1000),
			"peak_rss_mb":     float64(res.PeakRSSKB) / 1024,
		}
		setupHow := fmt.Sprintf("median of %d set-ups", len(res.Setup))
		if res.SetupHow != "" {
			setupHow = res.SetupHow
		}
		fmt.Println("end-to-end (tracing off):")
		for _, d := range endToEnd {
			extra := ""
			if d.Name == "setup_s" {
				extra = "(CPU seconds, " + setupHow + ")"
			}
			fmt.Printf("  %-18s %14.6g %-8s %s\n", d.Name, e2e[d.Name], d.Unit, extra)
			put(d.Name, d.Unit, e2e[d.Name])
		}
		// Wall-clock figures: what a user waits for, printed but not
		// gated, because on a shared host they move with the time the
		// hypervisor steals (see README).
		fmt.Println("wall clock (not gated):")
		fmt.Printf("  %-18s %14.6g %-8s (%s)\n", "setup_wall_s", median(res.SetupWall), "s", setupHow)
		fmt.Printf("  %-18s %14.6g %-8s (median of %d rounds)\n", "lines_per_s", res.linesPerS(), "lines/s", len(res.Rates))
		fmt.Printf("  %-18s %14.6g %-8s (n=%d)\n", "op_p50_s", lat.P50, "s", lat.N)
		fmt.Printf("  %-18s %14.6g %-8s %s\n", "op_p90_s", lat.P90, "s", p90Note(lat))
	}
	fmt.Printf("  %-18s %14.6g %-8s (%s)\n", "error_rate", res.Tally.errorRate(), "ratio", res.Tally.String())
	for _, r := range res.Tally.Reasons {
		fmt.Println("  failure:", r)
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Tally.Failed == 0 && res.Tally.Attempted > 0, res.Tally.Attempted, res.Tally.Failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// p90Note gives the evidence a p90 rests on.
func p90Note(l latency) string {
	s := fmt.Sprintf("(n=%d, %d beyond)", l.N, l.Tail)
	if !l.P90Backed() {
		s += " WARNING: fewer than 10 samples beyond p90"
	}
	return s
}

// deadline returns when a window of the run's length starting now ends.
func (cfg config) deadline() time.Time {
	return time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
