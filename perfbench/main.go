// Command perfbench is the repository benchmark: three workloads that use
// the placer the way its users do, each driven from this one process by a
// single closed-loop client.
//
//	flow-media    one cold full flow (place → legalize → dp, then the
//	              evaluation router) on synthetic MEDIA_SUBSYS at 1:200,
//	              then repeated routing evaluations of the placed design
//	eco-a53       an ECO session on synthetic A53_ADB_WRAP at 1:600 through
//	              pufferd's session API on an in-process serve.Server
//	fleet-explore an in-process coordinator and two workers: one cold
//	              distributed exploration, then warm re-explorations that
//	              answer every trial from the content-addressed cache
//
// Usage:
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run measures the end-to-end metrics with no bench
// instrumentation; with --trace 1 it also re-runs the workload's work
// through bench-owned spans around each layer's public entry points and
// reports the per-layer ledger instead. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md beside this file documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A workload runs one measured pass and fills r. The *run carries the
// seed, duration, trace mode, and a scratch directory inside the checkout.
// Why each workload was chosen is in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"flow-media", func(r *run) error { return runFlow(r, fullFlow) }},
	{"eco-a53", func(r *run) error { return runECO(r, fullECO) }},
	{"fleet-explore", func(r *run) error { return runFleet(r, fullFleet) }},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: derives every generated input")
		seconds = flag.Float64("seconds", 10, "measured duration of the warm closed loop")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		work    = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for spools and stores")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	var todo []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatalf("unknown --workload %q (want one of %s, or all)", *name, workloadNames())
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatalf("workdir: %v", err)
	}

	if *name != "all" {
		r := newRun(*seed, *seconds, *trace == 1, *work, os.Stdout)
		res, err := execute(todo[0], r)
		if err != nil {
			fatalf("%s: %v", todo[0].name, err)
		}
		emit(os.Stdout, res)
		return
	}

	// "all": every workload untraced for the end-to-end table, then traced
	// for the ledger; the summary line nests metrics under workload names.
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		for _, traced := range []bool{false, true} {
			r := newRun(*seed, *seconds, traced, *work, os.Stdout)
			res, err := execute(w, r)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, v := range res.Metrics {
				total.Metrics[w.name+"/"+k] = v
			}
		}
	}
	emit(os.Stdout, total)
}

// execute runs one workload pass and shapes its result for the mode.
func execute(w workload, r *run) (result, error) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(r.out, "== %s (%s, seed %d, %gs)\n", w.name, mode, r.seed, r.seconds)
	start := time.Now()
	// The pass's scratch directory is left in place: deleting a
	// fleet-explore pass's ~16k spool files just before the next pass
	// slowed that pass's fsync-bound warm loop by up to 2× (ext4 mounted
	// with discard, 2-vCPU VM), so the cost would land on the wrong pass.
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return result{}, err
	}
	if err := w.run(r); err != nil {
		return result{}, err
	}
	if r.spans != nil {
		path := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("trace-%s-seed%d.json", w.name, r.seed))
		if err := r.spans.writeChrome(path); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		r.note("bench spans written to %s", path)
	}
	r.set("peak_rss_mb", peakRSSMB())
	if r.ops.attempted > 0 {
		r.set("ok_ops_frac", 1-float64(r.ops.failed)/float64(r.ops.attempted))
	}
	res := r.result()
	printTable(r.out, r, res)
	fmt.Fprintf(r.out, "   %s done in %.1fs\n", w.name, time.Since(start).Seconds())
	return res, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// printTable prints the reported metrics by name with their units, then
// every failed gate, before the JSON summary line.
func printTable(w io.Writer, r *run, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		note := ""
		if _, ok := r.values[k]; !ok {
			note = "  (not measured in this workload)"
		}
		fmt.Fprintf(w, "   %-28s %14.6g %-6s%s\n", k, m.Value, m.Unit, note)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, g := range r.gateFailures {
		fmt.Fprintf(w, "   GATE FAILED: %s\n", g)
	}
	for _, f := range r.ops.failures {
		fmt.Fprintf(w, "   FAILED OP: %s\n", f)
	}
}

func emit(w io.Writer, res result) {
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(w, string(line))
}
