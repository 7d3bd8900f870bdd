package main

import (
	"reflect"
	"testing"
)

func drawJobs(seed uint64, client, n int) []mixJob {
	g := newSpecGen(seed, client)
	jobs := make([]mixJob, n)
	for i := range jobs {
		jobs[i] = g.nextJob()
	}
	return jobs
}

// The same seed yields the same spec sequence per client; another seed
// or another client yields a different one.
func TestJobMixDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for client := 0; client < 4; client++ {
			a, b := drawJobs(seed, client, 300), drawJobs(seed, client, 300)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d client %d: two draws differ", seed, client)
			}
		}
	}
	if reflect.DeepEqual(drawJobs(1, 0, 50), drawJobs(1, 1, 50)) {
		t.Error("clients 0 and 1 draw the same sequence")
	}
	if reflect.DeepEqual(drawJobs(1, 0, 50), drawJobs(2, 0, 50)) {
		t.Error("seeds 1 and 2 draw the same sequence")
	}
}

// Each kind of job is what it claims to be, and the realised shares
// sit near the targets.
func TestJobMixKinds(t *testing.T) {
	const n = 4000
	jobs := drawJobs(7, 0, n)
	if jobs[0].kind != kindFresh {
		t.Fatalf("first job is kind %d, want fresh", jobs[0].kind)
	}
	type stream struct {
		wl   string
		seed uint64
	}
	streams := map[stream]bool{}
	specs := map[string]bool{}
	count := [3]int{}
	for i, j := range jobs {
		count[j.kind]++
		norm, err := j.spec.Normalized()
		if err != nil {
			t.Fatalf("job %d: invalid spec: %v", i, err)
		}
		key := norm.CanonicalKey()
		s := stream{j.spec.Workloads[0], j.spec.Seed}
		switch j.kind {
		case kindFresh:
			if streams[s] {
				t.Fatalf("job %d: fresh job reuses stream %v", i, s)
			}
			streams[s] = true
		case kindShared:
			if !streams[s] {
				t.Fatalf("job %d: shared job's stream %v was never used", i, s)
			}
		case kindRepeat:
			if !specs[key] {
				t.Fatalf("job %d: repeat of a spec never submitted", i)
			}
		}
		specs[key] = true
	}
	for kind, want := range map[jobKind]float64{
		kindFresh:  float64(100-sharedPct-repeatPct) / 100,
		kindShared: sharedPct / 100.0,
		kindRepeat: repeatPct / 100.0,
	} {
		if got := float64(count[kind]) / n; got < want-0.03 || got > want+0.03 {
			t.Errorf("kind %d share %.3f, want %.2f ± 0.03", kind, got, want)
		}
	}
}
