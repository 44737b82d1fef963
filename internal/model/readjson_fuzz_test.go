package model_test

import (
	"bytes"
	"reflect"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/model"
)

// readJSONSeed is a small valid instance file in the on-disk schema.
const readJSONSeed = `{"sbss":2,"groups":3,"contents":4,
"demand":[[10,5,0,1],[2,2,2,2],[0,0,8,8]],
"links":[[true,true,true],[true,true,false]],
"cache_capacity":[2,1],"bandwidth":[20,10],
"edge_cost":[[1,1,1],[2,2,2]],"bs_cost":[100,120,110]}`

// FuzzReadJSON feeds arbitrary bytes to model.ReadJSON, the reader of the
// instance files edgesim and the cluster agents load. It must never
// panic. An instance it accepts must round-trip through WriteJSON
// unchanged, and every SBS of it must build a Subproblem and Solve once
// without error. Run longer sessions with
// `go test -run '^$' -fuzz=FuzzReadJSON ./internal/model`.
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(readJSONSeed))
	f.Add([]byte(`{"sbss":1,"groups":1,"contents":1,"demand":[[1e308]],"links":[[true]],"cache_capacity":[9223372036854775807],"bandwidth":[1.7976931348623157e308],"edge_cost":[[0]],"bs_cost":[1.7976931348623157e308]}`))
	f.Add([]byte(`{"sbss":1,"groups":1,"contents":2,"demand":[[-0,5e-324]],"links":[[true]],"cache_capacity":[0],"bandwidth":[0],"edge_cost":[[-0]],"bs_cost":[3]}`))
	f.Add([]byte(`{"sbss":2,"groups":1,"contents":1,"demand":[[1]],"links":[[true]],"cache_capacity":[1,1],"bandwidth":[1,1],"edge_cost":[[1],[1]],"bs_cost":[2]}`))
	f.Add([]byte(`{"sbss":1,"groups":1,"contents":1,"demand":[[-1]],"links":[[true]],"cache_capacity":[1],"bandwidth":[1],"edge_cost":[[1]],"bs_cost":[2],"extra":0}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := model.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := inst.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON of an accepted instance: %v", err)
		}
		back, err := model.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSON of WriteJSON's output: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(back, inst) {
			t.Fatalf("round trip changed the instance:\n got %+v\nwant %+v", back, inst)
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}

		yMinus := inst.NewUFMat()
		for n := 0; n < inst.N; n++ {
			sub, err := core.NewSubproblem(inst, n, core.DefaultSubproblemConfig())
			if err != nil {
				t.Fatalf("NewSubproblem(%d): %v", n, err)
			}
			if _, err := sub.Solve(yMinus); err != nil {
				t.Fatalf("Solve(%d): %v", n, err)
			}
		}
	})
}
