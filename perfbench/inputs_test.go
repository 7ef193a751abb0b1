package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"spkadd"
	"spkadd/internal/server"
)

func encodeAll(as []*spkadd.Matrix) [][]byte {
	out := make([][]byte, len(as))
	for i, a := range as {
		out[i] = server.EncodeCSC(a)
	}
	return out
}

// TestSeedDeterminesInputs pins the two properties later claims rest
// on: one seed regenerates byte-identical inputs, and another seed
// gives different inputs of the same shape.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, s := range []shape{
		{Rows: 16384, Cols: 256, D: 16},
		{Rows: 65536, Cols: 512, D: 8, RMAT: true},
	} {
		a, b := generate(s, 4, 7), generate(s, 4, 7)
		if !slices.EqualFunc(encodeAll(a), encodeAll(b), bytes.Equal) {
			t.Fatalf("%+v: seed 7 twice gave different inputs", s)
		}
		c := generate(s, 4, 8)
		for i := range a {
			if c[i].Rows != a[i].Rows || c[i].Cols != a[i].Cols {
				t.Fatalf("%+v: seed 8 input %d is %dx%d", s, i, c[i].Rows, c[i].Cols)
			}
			if r := float64(c[i].NNZ()) / float64(a[i].NNZ()); r < 0.97 || r > 1.03 {
				t.Fatalf("%+v: input %d has %d entries under seed 8, %d under seed 7", s, i, c[i].NNZ(), a[i].NNZ())
			}
			if bytes.Equal(server.EncodeCSC(c[i]), server.EncodeCSC(a[i])) {
				t.Fatalf("%+v: seeds 7 and 8 gave the same input %d", s, i)
			}
		}
	}
}

func TestCheckSumCatchesMismatch(t *testing.T) {
	as := generate(shape{Rows: 300, Cols: 70, D: 5}, 6, 1)
	weights := []int{1, 4, 3, 1, 2, 5}
	want, err := spkadd.AddScaled(as, []float64{1, 4, 3, 1, 2, 5}, spkadd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSum(want, as, weights); err != nil {
		t.Fatalf("correct sum rejected: %v", err)
	}
	bad := want.Clone()
	bad.Val[len(bad.Val)/2]++
	if checkSum(bad, as, weights) == nil {
		t.Fatal("a changed value passed the check")
	}
	if checkSum(want, as, nil) == nil {
		t.Fatal("a sum with the wrong weights passed the check")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// this program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}
