package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeJobSpec: the submission decoder every request to a worker or
// a coordinator passes through never panics, and whatever it accepts is a
// fixpoint — re-encoding the spec and decoding it again yields an accepted
// spec with the same encoding.
func FuzzDecodeJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"profile":"MEDIA_SUBSYS","scale":3000,"seed":5}`,
		`{"kind":"explore","profile":"OR1200","budget":2,"distributed":true,"early_stop":true}`,
		`{"kind":"place","bookshelf":{"d.aux":"RowBasedPlacement : d.nodes","d.nodes":""},"route":true}`,
		`{"profile":"OR1200","strategy":{"Mu":1.5, "Beta":0.5},"timeout_sec":2.5,"max_iters":100}`,
		`{"profile":"OR1200","checkpoint":{"stage":"gp"}}`,
		`{"profile":"OR1200","bogus":1}`,
		`{"kind":"route"}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := DecodeJobSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", enc, enc2)
		}
	})
}

// TestDecodeJobSpecErrors pins the decoder's client-error classes.
func TestDecodeJobSpecErrors(t *testing.T) {
	for body, want := range map[string]string{
		`{"profile":"MEDIA_SUBSYS","bogus":1}`: "unknown field",
		`{"profile":"NO_SUCH_DESIGN"}`:         "NO_SUCH_DESIGN",
		`{"kind":"route","profile":"OR1200"}`:  "unknown job kind",
		`{"profile":"OR1200"`:                  "decode job spec",
	} {
		if _, err := DecodeJobSpec(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", body, err, want)
		}
	}
	spec, err := DecodeJobSpec(strings.NewReader(`{"profile":"OR1200"}`))
	if err != nil || spec.Kind != KindPlace || spec.Scale != 800 || spec.Seed != 1 {
		t.Fatalf("defaults not applied: %+v, %v", spec, err)
	}
}
