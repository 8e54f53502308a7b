package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// runVerify runs one small verify pass and returns its checker.
func runVerify(t *testing.T, want map[string]string) *checker {
	t.Helper()
	e := &env{seed: 5, jobs: 2, dir: t.TempDir(), chk: newChecker(want)}
	w, err := newVerify(e, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.pass(0, 1); err != nil {
		t.Fatal(err)
	}
	return e.chk
}

func TestWrongExpectedDigestCountsAsFailure(t *testing.T) {
	got := runVerify(t, nil).got
	if len(got) != 3 {
		t.Fatalf("digests %v, want litmus-sc, litmus-tso and difftest", got)
	}
	if c := runVerify(t, got); c.failed != 0 {
		t.Fatalf("matching digests: %d failed: %v", c.failed, c.failures)
	}
	wrong := make(map[string]string)
	for k, v := range got {
		wrong[k] = v
	}
	wrong["verify/5/difftest"] = sha([]byte("planted"))
	c := runVerify(t, wrong)
	if c.failed != 1 || c.attempted < 2 {
		t.Fatalf("planted digest: %d of %d failed (%v), want exactly 1", c.failed, c.attempted, c.failures)
	}
	delete(wrong, "verify/5/litmus-sc")
	if c := runVerify(t, wrong); c.failed != 2 {
		t.Fatalf("planted and missing digest: %d failed (%v), want 2", c.failed, c.failures)
	}
}

func TestLayerNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, layerNames()) {
		t.Fatalf("BENCHMARK.json per_layer %v\nlayerNames() %v", names, layerNames())
	}
}

func TestSelfTimeSubtractsParallelChildrenOnce(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.new", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "core.new", Start: 30, End: 60},
		{ID: 4, Name: "probe", Start: 120, End: 150},
	}}
	layers, unattributed := tr.selfTimes(200)
	self := make(map[string]float64)
	for _, lt := range layers {
		self[lt.Name] = math.Round(lt.Self * 1e9)
	}
	if self["pass"] != 50 || self["core.new"] != 70 || self["probe"] != 30 {
		t.Fatalf("self times (ns) %v", self)
	}
	if math.Round(unattributed*1e9) != 70 {
		t.Fatalf("unattributed %v ns, want 70", unattributed*1e9)
	}
}
