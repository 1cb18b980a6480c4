package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"puffer/internal/router"
)

// Tiny versions of the three workloads, run through the same code as the
// full ones, so the harness and its correctness gates cannot rot.
var (
	tinyFlow = flowParams{profile: "MEDIA_SUBSYS", scale: 3000, designSeed: 1, setups: 2}
	tinyECO  = ecoParams{profile: "A53_ADB_WRAP", scale: 6000, designSeed: 1, setups: 2,
		movePct: 0.02, resizes: 1, reweights: 1, maxIters: 60}
	tinyFleet = fleetParams{profile: "MEDIA_SUBSYS", scale: 3000, designSeed: 7, budget: 1, maxIters: 30,
		nodes: 2, setups: 1, poll: 20 * time.Millisecond, heartbeat: 100 * time.Millisecond, deadAfter: time.Minute}
)

func tinyRun(t *testing.T, traced bool) *run {
	t.Helper()
	r := newRun(3, 0.3, traced, t.TempDir(), os.Stdout)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkPass asserts the pass is correct, failed nothing, and reports
// exactly the metrics of its mode.
func checkPass(t *testing.T, r *run) result {
	t.Helper()
	r.set("peak_rss_mb", peakRSSMB())
	r.set("ok_ops_frac", 1-float64(r.ops.failed)/float64(r.ops.attempted))
	res := r.result()
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("pass failed: gates %v, ops %v", r.gateFailures, r.ops.failures)
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("reported %d metrics, want %d", len(res.Metrics), len(defs))
	}
	if !r.traced {
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value == 0 {
				t.Errorf("end-to-end metric %s is 0", d.name)
			}
		}
	}
	return res
}

func TestFlowTiny(t *testing.T) {
	r := tinyRun(t, true)
	if err := runFlow(r, tinyFlow); err != nil {
		t.Fatal(err)
	}
	res := checkPass(t, r)
	for _, k := range []string{"place.wall_s", "place.iters", "padding.calls", "legal.wall_s", "router.wall_s",
		"wirelength.grad_ms", "density.solve_ms", "cong.estimate_ms", "rsmt.build_ms"} {
		if res.Metrics[k].Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, res.Metrics[k].Value)
		}
	}
}

func TestECOTiny(t *testing.T) {
	r := tinyRun(t, true)
	if err := runECO(r, tinyECO); err != nil {
		t.Fatal(err)
	}
	res := checkPass(t, r)
	if res.Metrics["eco.deltas"].Value < 1 || res.Metrics["eco.apply_ms_p50"].Value <= 0 {
		t.Errorf("no deltas replayed: %+v", res.Metrics["eco.deltas"])
	}
}

func TestFleetTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an in-process fleet")
	}
	r := tinyRun(t, true)
	if err := runFleet(r, tinyFleet); err != nil {
		t.Fatal(err)
	}
	res := checkPass(t, r)
	if got := res.Metrics["cas.hit_rate_warm"].Value; got != 1 {
		t.Errorf("warm re-explorations hit the cache %v of the time, want 1", got)
	}
	if res.Metrics["cas.trials_cold"].Value == 0 || res.Metrics["trial.runtime_ms_p50"].Value <= 0 {
		t.Errorf("cold trials not accounted: %+v", res.Metrics)
	}
}

func TestUntracedReportsEndToEnd(t *testing.T) {
	r := tinyRun(t, false)
	if err := runFlow(r, tinyFlow); err != nil {
		t.Fatal(err)
	}
	checkPass(t, r)
}

// The twin check must fail a pass whose traced run differs in any of the
// three quality numbers.
func TestTwinCheckCatchesMismatch(t *testing.T) {
	a := &router.Result{WL: 100, HOF: 1, VOF: 2}
	for name, tc := range map[string]struct {
		hpwl float64
		b    *router.Result
	}{
		"hpwl":     {11, &router.Result{WL: 100, HOF: 1, VOF: 2}},
		"wl":       {10, &router.Result{WL: 101, HOF: 1, VOF: 2}},
		"overflow": {10, &router.Result{WL: 100, HOF: 1, VOF: 2.5}},
	} {
		r := tinyRun(t, false)
		twinCheck(r, name, 10, a, tc.hpwl, tc.b)
		if len(r.gateFailures) != 1 {
			t.Errorf("%s: %d gate failures, want 1", name, len(r.gateFailures))
		}
		r.op(nil)
		if r.result().Correct {
			t.Errorf("%s: mismatching twin passed", name)
		}
	}
	r := tinyRun(t, false)
	twinCheck(r, "same", 10, a, 10, &router.Result{WL: 100, HOF: 1, VOF: 2})
	if len(r.gateFailures) != 0 {
		t.Errorf("identical twins failed: %v", r.gateFailures)
	}
}

// Non-2xx answers (429 included) are counted as failed operations, never
// retried, and lower ok_ops_frac.
func TestFailureAccounting(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{}`))
	}))
	defer hs.Close()
	c := newClient(hs.URL)
	r := tinyRun(t, false)
	for i := 0; i < 4; i++ {
		r.op(c.call("GET", "/", nil, 200, nil))
	}
	if calls.Load() != 4 || r.ops.attempted != 4 || r.ops.failed != 1 {
		t.Fatalf("calls=%d attempted=%d failed=%d, want 4/4/1", calls.Load(), r.ops.attempted, r.ops.failed)
	}
	res := r.result()
	if res.Attempted != 4 || res.Failed != 1 {
		t.Fatalf("result attempted=%d failed=%d", res.Attempted, res.Failed)
	}
}

// A delta the daemon rejects counts as a failed operation.
func TestRejectedDeltaCounts(t *testing.T) {
	srv, err := startServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	c := newClient(srv.l.url)
	var opened sessionStatus
	if err := c.call("POST", "/api/v1/sessions", tinyECO.sessionSpec(), 202, &opened); err != nil {
		t.Fatal(err)
	}
	for opened.State == "opening" {
		time.Sleep(statusPoll)
		if err := c.call("GET", "/api/v1/sessions/"+opened.ID, nil, 200, &opened); err != nil {
			t.Fatal(err)
		}
	}
	r := tinyRun(t, false)
	bad := []byte(`{"moves":[{"cell":-1,"x":0,"y":0}]}`)
	if r.op(c.call("POST", "/api/v1/sessions/"+opened.ID+"/deltas", bad, 200, nil)) {
		t.Fatal("out-of-range delta was accepted")
	}
	if r.ops.failed != 1 {
		t.Fatalf("failed = %d, want 1", r.ops.failed)
	}
}

// The workload seed names the inputs: the same seed gives the same delta
// stream, another seed another one.
func TestDeltaStreamSeeded(t *testing.T) {
	d, err := generate(tinyECO.profile, tinyECO.scale, tinyECO.designSeed)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) []byte {
		s := newDeltaStream(seed, d, tinyECO)
		var all []any
		for i := 0; i < 5; i++ {
			dl := s.next()
			if err := dl.Validate(d); err != nil {
				t.Fatalf("seed %d delta %d invalid: %v", seed, i, err)
			}
			all = append(all, dl)
		}
		data, _ := json.Marshal(all)
		return data
	}
	if !reflect.DeepEqual(gen(1), gen(1)) {
		t.Error("same seed, different deltas")
	}
	if reflect.DeepEqual(gen(1), gen(2)) {
		t.Error("different seeds, same deltas")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	if tailCounts(99, 0.9) || !tailCounts(100, 0.9) {
		t.Error("p90 needs 100 samples to have 10 beyond it")
	}
}

// BENCHMARK.json at the repository root must declare exactly the metrics
// and workloads this program reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s vs %s", i, b.Workloads[i].Name, w.name)
		}
	}
}
