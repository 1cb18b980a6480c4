package eco

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadSnapshot: LoadSnapshot is what a rehydrating session reads back
// from the spool, so it must never panic, and whatever it accepts must
// Save and reload to an equal snapshot.
func FuzzLoadSnapshot(f *testing.F) {
	valid := `{"format":"puffer/eco-session/v1","design_hash":"00000000deadbeef","deltas":2,` +
		`"last_hpwl":12.5,"last_overflow":0.08,"grid_level":0,"grid_m":64,"grid_n":64,"est_calls":3,` +
		`"cell_w":[1,2],"cell_h":[1,1],` +
		`"checkpoint":{"format":"puffer/checkpoint/v1","stage":"dp","x":[0,1],"y":[0,1],"pad_w":[0,0],"net_weight":[1]},` +
		`"padding":{"iter":1,"pad_times":[0,1],"last_util":0.5}}`
	for _, seed := range []string{
		valid,
		`{"format":"puffer/eco-session/v1","design_hash":"x","cell_w":[],"cell_h":[],"checkpoint":{"format":"puffer/checkpoint/v1","stage":"dp"}}`,
		`{"format":"puffer/eco-session/v1","design_hash":"x","deltas":-1,"cell_w":[],"cell_h":[],"checkpoint":{"format":"puffer/checkpoint/v1","stage":"dp"}}`,
		`{"format":"puffer/eco-session/v1","design_hash":"x","cell_w":[1],"cell_h":[],"checkpoint":{"format":"puffer/checkpoint/v1","stage":"dp","x":[0],"y":[0],"pad_w":[0]}}`,
		`{"format":"puffer/eco-session/v1","checkpoint":null}`,
		`{"est_rebuilds":7}`,
		`null`,
		``,
		`{"format":`,
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sn, err := LoadSnapshot(in)
		if err != nil {
			return
		}
		if err := sn.Save(out); err != nil {
			t.Fatalf("accepted snapshot does not save: %v", err)
		}
		again, err := LoadSnapshot(out)
		if err != nil {
			t.Fatalf("saved snapshot rejected: %v", err)
		}
		if !reflect.DeepEqual(sn, again) {
			t.Fatalf("save/reload changed the snapshot:\n%+v\n%+v", sn, again)
		}
	})
}
