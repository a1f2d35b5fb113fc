package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}

	var want []entry
	for _, m := range layerMetrics {
		want = append(want, entry{m.name, m.unit, m.better})
	}
	if !reflect.DeepEqual(b.PerLayer, want) {
		t.Errorf("per_layer in BENCHMARK.json differs from layerMetrics:\n got %v\nwant %v", b.PerLayer, want)
	}

	res := &outcome{}
	endToEnd(res, &loopStats{lat: []float64{1}, ok: 1, elapsed: time.Second}, 1)
	var got, listed [][2]string
	for _, m := range res.metrics {
		got = append(got, [2]string{m.name, m.unit})
	}
	for _, e := range b.EndToEnd {
		listed = append(listed, [2]string{e.Name, e.Unit})
	}
	if !reflect.DeepEqual(got, listed) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the printed metrics:\n got %v\nwant %v", listed, got)
	}
}

// TestGenStream checks the serve_mix stream: a pure function of the seed,
// every fresh key distinct, and the same mix of work for every seed.
func TestGenStream(t *testing.T) {
	const n = 2400
	a, b := genStream(7, n), genStream(7, n)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("request %d differs between two generations with one seed", i)
		}
	}
	// Fresh keys follow the stratified cells exactly; repeats do too,
	// except for fall-backs early in the stream.
	mix := func(s []*keySpec, fresh bool) map[slot]int {
		m := map[slot]int{}
		seen := map[int]bool{}
		for i, k := range s {
			if (i%4 == 0) != fresh {
				continue
			}
			if fresh && seen[k.id] {
				t.Fatalf("fresh request %d reuses key %d", i, k.id)
			}
			seen[k.id] = true
			m[slot{k.app, k.sweep != nil}]++
		}
		return m
	}
	c := genStream(8, n)
	if fa, fc := mix(a, true), mix(c, true); !reflect.DeepEqual(fa, fc) {
		t.Errorf("seeds 7 and 8 offer different fresh mixes: %v vs %v", fa, fc)
	}
	ra, rc := mix(a, false), mix(c, false)
	for cell, na := range ra {
		if d := na - rc[cell]; d*d > 144 {
			t.Errorf("cell %v: %d repeats with seed 7, %d with seed 8", cell, na, rc[cell])
		}
	}
}
