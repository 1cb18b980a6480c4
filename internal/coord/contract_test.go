package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"puffer/internal/serve"
)

// apiTarget is one server behind the job API: its base URL, its spool
// (for seeding manifests), its request-latency histogram name, and its
// drain.
type apiTarget struct {
	url   string
	spool *serve.Spool
	hist  string
	drain func(context.Context) error
}

// TestJobAPIContract runs one table of job API expectations against both
// roles — a worker daemon, and a coordinator with one live worker — so the
// two cannot drift apart again.
func TestJobAPIContract(t *testing.T) {
	targets := map[string]func(t *testing.T) apiTarget{
		"worker": func(t *testing.T) apiTarget {
			w := newFleetWorker(t, "w1")
			return apiTarget{w.http.URL, w.srv.Spool(), "serve.http_request_seconds", w.srv.Drain}
		},
		"coordinator": func(t *testing.T) apiTarget {
			w := newFleetWorker(t, "w1")
			cs, ch := newCoordinator(t, Config{})
			w.register(t, ch.URL)
			return apiTarget{ch.URL, cs.Spool(), "coord.http_request_seconds", cs.Drain}
		},
	}
	for _, role := range []string{"worker", "coordinator"} {
		t.Run(role, func(t *testing.T) {
			runContract(t, targets[role](t))
		})
	}
}

// call issues one request and returns the status and body.
func call(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func runContract(t *testing.T, tg apiTarget) {
	quick, _ := json.Marshal(quickFleetSpec())
	var submitted serve.Manifest

	// A seeded finished job, as a coordinator records a farm trial: list
	// rows must carry its provenance but not its inline upload/checkpoint.
	seeded := &serve.Manifest{
		ID:          "seededjob001",
		State:       serve.StateDone,
		Spec:        serve.JobSpec{Kind: serve.KindPlace, Bookshelf: map[string]string{"d.aux": "RowBasedPlacement : d.nodes"}},
		Parent:      "parentjob001",
		SubmittedAt: time.Now().UTC(),
	}
	if err := tg.spool.CreateJob(seeded); err != nil {
		t.Fatal(err)
	}
	if _, err := tg.spool.Update(seeded.ID, func(m *serve.Manifest) error {
		m.Spec.Checkpoint = json.RawMessage(`{"stage":"gp"}`)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name  string
		check func(t *testing.T)
	}{
		{"submit 202", func(t *testing.T) {
			code, body := call(t, http.MethodPost, tg.url+"/api/v1/jobs", string(quick))
			if code != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", code, body)
			}
			if err := json.Unmarshal(body, &submitted); err != nil || submitted.ID == "" {
				t.Fatalf("submit body %s: %v", body, err)
			}
		}},
		{"unknown spec field 400", func(t *testing.T) {
			code, body := call(t, http.MethodPost, tg.url+"/api/v1/jobs", `{"profile":"MEDIA_SUBSYS","bogus":1}`)
			if code != http.StatusBadRequest || !bytes.Contains(body, []byte("bogus")) {
				t.Fatalf("unknown field = %d: %s", code, body)
			}
		}},
		{"unknown id 404", func(t *testing.T) {
			for _, path := range []string{"", "/result", "/events", "/artifacts/report.json"} {
				if code, body := call(t, http.MethodGet, tg.url+"/api/v1/jobs/nosuchjob"+path, ""); code != http.StatusNotFound {
					t.Errorf("GET nosuchjob%s = %d: %s", path, code, body)
				}
			}
			if code, _ := call(t, http.MethodPost, tg.url+"/api/v1/jobs/nosuchjob/cancel", ""); code != http.StatusNotFound {
				t.Errorf("cancel nosuchjob = %d", code)
			}
		}},
		{"events end in a terminal state", func(t *testing.T) {
			code, body := call(t, http.MethodGet, tg.url+"/api/v1/jobs/"+submitted.ID+"/events", "")
			if code != http.StatusOK {
				t.Fatalf("events = %d", code)
			}
			var last serve.Event
			serve.ReadEvents(bytes.NewReader(body), func(e serve.Event) bool {
				if e.Type == "state" {
					last = e
				}
				return true
			})
			if last.State != serve.StateDone {
				t.Fatalf("stream ended in %+v, want done", last)
			}
		}},
		{"result 200 once done", func(t *testing.T) {
			code, body := call(t, http.MethodGet, tg.url+"/api/v1/jobs/"+submitted.ID+"/result", "")
			var res serve.JobResult
			if code != http.StatusOK || json.Unmarshal(body, &res) != nil || res.HPWL <= 0 {
				t.Fatalf("result = %d: %s", code, body)
			}
		}},
		{"cancel of a terminal job 409", func(t *testing.T) {
			if code, body := call(t, http.MethodPost, tg.url+"/api/v1/jobs/"+submitted.ID+"/cancel", ""); code != http.StatusConflict {
				t.Fatalf("cancel done job = %d: %s", code, body)
			}
		}},
		{"artifact path escape rejected", func(t *testing.T) {
			code, body := call(t, http.MethodGet, tg.url+"/api/v1/jobs/"+submitted.ID+"/artifacts/..%2fmanifest.json", "")
			if code != http.StatusBadRequest {
				t.Fatalf("escape = %d: %s", code, body)
			}
		}},
		{"result before done 409", func(t *testing.T) {
			slow := quickFleetSpec()
			slow.Scale = 400
			spec, _ := json.Marshal(slow)
			code, body := call(t, http.MethodPost, tg.url+"/api/v1/jobs", string(spec))
			var m serve.Manifest
			if code != http.StatusAccepted || json.Unmarshal(body, &m) != nil {
				t.Fatalf("submit slow = %d: %s", code, body)
			}
			if code, body := call(t, http.MethodGet, tg.url+"/api/v1/jobs/"+m.ID+"/result", ""); code != http.StatusConflict {
				t.Fatalf("result of unfinished job = %d: %s", code, body)
			}
			if code, body := call(t, http.MethodPost, tg.url+"/api/v1/jobs/"+m.ID+"/cancel", ""); code != http.StatusOK && code != http.StatusAccepted {
				t.Fatalf("cancel unfinished job = %d: %s", code, body)
			}
		}},
		{"list rows are manifests without inline uploads", func(t *testing.T) {
			code, body := call(t, http.MethodGet, tg.url+"/api/v1/jobs", "")
			var list []map[string]any
			if code != http.StatusOK || json.Unmarshal(body, &list) != nil {
				t.Fatalf("list = %d: %s", code, body)
			}
			byID := map[string]map[string]any{}
			for _, row := range list {
				id, _ := row["id"].(string)
				byID[id] = row
			}
			for id, wantParent := range map[string]any{submitted.ID: nil, seeded.ID: seeded.Parent} {
				row := byID[id]
				spec, _ := row["spec"].(map[string]any)
				if row == nil || row["state"] != "done" || spec["kind"] != serve.KindPlace || row["parent"] != wantParent {
					t.Errorf("row %s = %v", id, row)
				}
				if _, ok := spec["bookshelf"]; ok {
					t.Errorf("row %s inlines its upload", id)
				}
				if _, ok := spec["checkpoint"]; ok {
					t.Errorf("row %s inlines its checkpoint", id)
				}
			}
		}},
		{"healthz 200, readyz ready, ops histograms", func(t *testing.T) {
			if code, body := call(t, http.MethodGet, tg.url+"/healthz", ""); code != http.StatusOK || !bytes.Contains(body, []byte(`"serving"`)) {
				t.Fatalf("healthz = %d: %s", code, body)
			}
			code, body := call(t, http.MethodGet, tg.url+"/readyz", "")
			var ready struct {
				Ready   bool     `json:"ready"`
				Reasons []string `json:"reasons"`
			}
			if code != http.StatusOK || json.Unmarshal(body, &ready) != nil || !ready.Ready || len(ready.Reasons) != 0 {
				t.Fatalf("readyz = %d: %s", code, body)
			}
			code, body = call(t, http.MethodGet, tg.url+"/api/v1/ops", "")
			var ops struct {
				Histograms map[string]struct {
					Count uint64 `json:"count"`
				} `json:"histograms"`
			}
			if code != http.StatusOK || json.Unmarshal(body, &ops) != nil || ops.Histograms[tg.hist].Count == 0 {
				t.Fatalf("ops = %d, %s missing: %s", code, tg.hist, body)
			}
		}},
		{"draining: submit 503, readyz reason, healthz 200", func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := tg.drain(ctx); err != nil {
				t.Fatal(err)
			}
			if code, body := call(t, http.MethodPost, tg.url+"/api/v1/jobs", string(quick)); code != http.StatusServiceUnavailable {
				t.Fatalf("submit while draining = %d: %s", code, body)
			}
			if code, body := call(t, http.MethodGet, tg.url+"/readyz", ""); code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"draining"`)) {
				t.Fatalf("readyz while draining = %d: %s", code, body)
			}
			if code, body := call(t, http.MethodGet, tg.url+"/healthz", ""); code != http.StatusOK || !bytes.Contains(body, []byte(`"draining"`)) {
				t.Fatalf("healthz while draining = %d: %s", code, body)
			}
		}},
	}
	for _, row := range rows {
		if !t.Run(row.name, row.check) {
			return // later rows build on earlier ones
		}
	}
}
