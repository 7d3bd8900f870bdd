package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// BENCHMARK.json and the metric tables here must declare the same
// workloads and metrics with the same units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the benchmark implements %d", names, len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		byName := map[string]metricDef{}
		for _, d := range want {
			byName[d.name] = d
		}
		for _, g := range got {
			d, ok := byName[g.Name]
			if !ok {
				t.Errorf("%s: %s is not reported", kind, g.Name)
				continue
			}
			if g.Unit != d.unit || (d.better != "" && g.Better != d.better) {
				t.Errorf("%s: %s is %s/%s in BENCHMARK.json, %s/%s here", kind, g.Name, g.Unit, g.Better, d.unit, d.better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func writeOutput(t *testing.T, dir, name string, numCPU int) string {
	t.Helper()
	p := filepath.Join(dir, name)
	body := fmt.Sprintf(`setup_s 1 s
{"meta":{"workload":"fig-sweep","seed":1,"seconds":10,"trace":false,"num_cpu":%d,"gomaxprocs":%d,"go_version":"go","attempted":1,"samples":1}}
{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"}}}
`, numCPU, numCPU)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// Results measured on different CPU counts are not comparable.
func TestCompareRefusesDifferentCPUCounts(t *testing.T) {
	dir := t.TempDir()
	a, b := writeOutput(t, dir, "a", 2), writeOutput(t, dir, "b", 1)
	err := compareOutputs(a, b)
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("compare across CPU counts: err = %v, want a refusal", err)
	}
	if err := compareOutputs(a, writeOutput(t, dir, "c", 2)); err != nil {
		t.Fatalf("compare on equal CPU counts: %v", err)
	}
}

// The recorded default-seed outputs equal an independent recomputation.
// On an intentional change to the simulation, paste the printed values.
func TestRecordedFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes every offline simulation")
	}
	for name, jobs := range map[string][]refJob{
		"fig-sweep":      figSweepJobs(),
		"measure-branch": branchJobs(),
	} {
		got, err := referenceFingerprints(jobs, recordedSeed)
		if err != nil {
			t.Fatal(err)
		}
		want := recordedFingerprints[name]
		if strings.Join(got, ",") != strings.Join(want, ",") {
			sort.Strings(got)
			t.Errorf("%s: recorded fingerprints are stale; recomputed:\n\t%q: {%s},", name, name, quoteAll(got))
		}
	}
}

func quoteAll(xs []string) string {
	q := make([]string, len(xs))
	for i, x := range xs {
		q[i] = fmt.Sprintf("%q", x)
	}
	return strings.Join(q, ", ")
}
