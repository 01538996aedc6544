package main

import (
	"math"
	"testing"
)

// TestSpecMatchesWorkloads checks the run's own name check against
// the committed BENCHMARK.json: the workloads' layers are exactly the
// per-layer metrics, and an undeclared metric fails.
func TestSpecMatchesWorkloads(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]float64{}
	for _, m := range append(append([]string(nil), s.EndToEnd.names...), s.PerLayer.names...) {
		measured[m] = 1
	}
	if err := s.check(measured); err != nil {
		t.Error(err)
	}
	measured["calibrate_s"] = 1
	if err := s.check(measured); err == nil {
		t.Error("an undeclared metric passed the check")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := median(xs); q != 2.5 {
		t.Fatalf("median = %v", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Fatalf("max = %v", q)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
}
