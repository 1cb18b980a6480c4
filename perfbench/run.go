package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json (bench_test.go checks
// they agree): an untraced run reports exactly endToEnd, a traced run
// exactly perLayer.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_s", "s"},
	{"warm_ms_p50", "ms"},
	{"hpwl", "length"},
	{"routed_wl", "length"},
	{"routed_overflow_pct", "%"},
	{"peak_rss_mb", "MB"},
	{"ok_ops_frac", "ratio"},
}

var perLayer = []metricDef{
	{"place.wall_s", "s"},
	{"place.iters", "count"},
	{"place.gp_ms_per_iter", "ms"},
	{"place.allocs", "count"},
	{"wirelength.grad_ms", "ms"},
	{"density.solve_ms", "ms"},
	{"density.force_ms", "ms"},
	{"padding.calls", "count"},
	{"padding.wall_s", "s"},
	{"cong.estimate_ms", "ms"},
	{"feature.extract_ms", "ms"},
	{"rsmt.build_ms", "ms"},
	{"legal.wall_s", "s"},
	{"legal.allocs", "count"},
	{"legal.check_ms", "ms"},
	{"dp.wall_s", "s"},
	{"router.wall_s", "s"},
	{"router.rerouted", "count"},
	{"eco.apply_ms_p50", "ms"},
	{"eco.place_ms_p50", "ms"},
	{"eco.legal_ms_p50", "ms"},
	{"eco.dp_ms_p50", "ms"},
	{"eco.gp_iters_p50", "count"},
	{"eco.unaccounted_ms_p50", "ms"},
	{"eco.snapshot_ms", "ms"},
	{"eco.deltas", "count"},
	{"cong.hit_rate", "ratio"},
	{"cong.lookups", "count"},
	{"serve.delta_overhead_ms", "ms"},
	{"trial.runtime_ms_p50", "ms"},
	{"trial.cached_ms_p50", "ms"},
	{"coord.dispatch_ms_p50", "ms"},
	{"coord.poll_lag_ms_p50", "ms"},
	{"cas.hit_rate_cold", "ratio"},
	{"cas.trials_cold", "count"},
	{"cas.hit_rate_warm", "ratio"},
	{"cas.trials_warm", "count"},
	{"cas.lookup_us", "us"},
	{"serve.spool_write_ms", "ms"},
	{"xfarm.checkpoint_ms", "ms"},
	{"explore.suggest_ms", "ms"},
	{"warm.samples", "count"},
	{"warm_ms_p90", "ms"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the summary line's schema.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is the state of one measured pass over a workload: its inputs, the
// values measured so far, the correctness gates, and the operation count
// behind ok_ops_frac.
type run struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string // scratch directory for the pass's spools and stores
	out     io.Writer

	values       map[string]float64
	notes        []string
	gateFailures []string
	ops          struct {
		attempted, failed int
		failures          []string
	}
	spans *tracer // non-nil only in traced passes
}

var runSeq int

func newRun(seed int64, seconds float64, traced bool, workDir string, out io.Writer) *run {
	runSeq++
	r := &run{
		seed: seed, seconds: seconds, traced: traced, out: out,
		dir:    filepath.Join(workDir, fmt.Sprintf("run-%d-%d", os.Getpid(), runSeq)),
		values: map[string]float64{},
	}
	if traced {
		r.spans = newTracer()
	}
	return r
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// note adds an informational line to the printed table.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gate records a correctness check; a false ok fails the run.
func (r *run) gate(ok bool, format string, args ...any) bool {
	if !ok {
		r.gateFailures = append(r.gateFailures, fmt.Sprintf(format, args...))
	}
	return ok
}

// op counts one attempted client operation, failed when err is non-nil.
// Nothing is retried: a failure is counted and the loop moves on.
func (r *run) op(err error) bool {
	r.ops.attempted++
	if err != nil {
		r.ops.failed++
		if len(r.ops.failures) < 10 {
			r.ops.failures = append(r.ops.failures, err.Error())
		}
		return false
	}
	return true
}

// result shapes the measured values into the summary for this pass's
// mode. A per-layer metric the workload never reaches reads 0; a missing
// end-to-end metric fails the run.
func (r *run) result() result {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{
		Attempted: r.ops.attempted,
		Failed:    r.ops.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			r.gate(false, "end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.gate(false, "metric %s is not finite", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted == 0 {
		r.gate(false, "no operation was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = len(r.gateFailures) == 0
	return res
}

// --- statistics -----------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailCounts reports whether the q-quantile of n samples has at least ten
// samples beyond it, the rule for quoting a tail percentile.
func tailCounts(n int, q float64) bool { return float64(n)*(1-q) >= 10-1e-9 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// timeMedian runs fn reps times and returns the median wall in ms.
func timeMedian(reps int, fn func()) float64 {
	walls := make([]float64, reps)
	for i := range walls {
		t := time.Now()
		fn()
		walls[i] = ms(time.Since(t))
	}
	return median(walls)
}

// --- bench-owned spans ----------------------------------------------------

// tracer keeps the spans a traced pass records around calls into each
// layer, in memory, and writes them as a Chrome trace at the end.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle; a nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0), end: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	return s.end - s.start
}

// total sums the durations of every closed span with the given name.
func (t *tracer) total(name string) (sum time.Duration, n int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			sum += s.end - s.start
			n++
		}
	}
	return sum, n
}

// writeChrome writes the spans in Chrome trace-event format.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
