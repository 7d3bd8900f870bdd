package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareBench diffs two benchmark JSON files and fails on regressions
// beyond tolerance. The file schema is sniffed: BENCH_baseline.json
// (per-scheme entries) and BENCH_sweep.json (per-arm sweep throughput)
// both route through the same -bench-compare flag, so CI gates the
// single-pass sweep path with the same step that gates per-scheme
// throughput. Both files must be the same schema.
func compareBench(oldPath, newPath string, tolerance float64) error {
	oldSweep, err := sniffSweep(oldPath)
	if err != nil {
		return err
	}
	newSweep, err := sniffSweep(newPath)
	if err != nil {
		return err
	}
	if oldSweep != newSweep {
		return fmt.Errorf("mixed schemas: %s and %s are not the same kind of benchmark file", oldPath, newPath)
	}
	if oldSweep {
		return compareSweeps(oldPath, newPath, tolerance)
	}
	return compareBaselines(oldPath, newPath, tolerance)
}

// sniffSweep reports whether the file is a sweep file (arm objects
// under "live") rather than a per-scheme baseline (entry
// objects under "schemes").
func sniffSweep(path string) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var probe struct {
		Live *sweepArm `json:"live"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	return probe.Live != nil, nil
}

// compareSweeps diffs two BENCH_sweep.json files arm by arm on
// refs/sec, with the same drop tolerance as the per-scheme compare.
// Arms the old file lacks (e.g. "multi" before the single-pass engine)
// are reported but not judged; arms the old file has and the new file
// dropped fail — a silently vanished arm is how a regression hides.
func compareSweeps(oldPath, newPath string, tolerance float64) error {
	oldFile, err := readSweep(oldPath)
	if err != nil {
		return err
	}
	newFile, err := readSweep(newPath)
	if err != nil {
		return err
	}
	if oldFile.Workload != newFile.Workload || oldFile.RefsPerCore != newFile.RefsPerCore ||
		oldFile.Geometry != newFile.Geometry || oldFile.WarmupPerCore != newFile.WarmupPerCore {
		return fmt.Errorf("sweeps not comparable: %s/%s/%d+%d refs vs %s/%s/%d+%d refs",
			oldFile.Geometry, oldFile.Workload, oldFile.WarmupPerCore, oldFile.RefsPerCore,
			newFile.Geometry, newFile.Workload, newFile.WarmupPerCore, newFile.RefsPerCore)
	}
	arms := []struct {
		name     string
		old, new *sweepArm
	}{
		{"live", &oldFile.Live, &newFile.Live},
		{"multi", &oldFile.Multi, &newFile.Multi},
		{"snap", &oldFile.Snap, &newFile.Snap},
	}
	var regressions []string
	for _, a := range arms {
		switch {
		case a.old.WallNanos == 0 && a.new.WallNanos == 0:
			continue
		case a.old.WallNanos == 0:
			fmt.Printf("%-8s %12s -> %12.0f refs/s  (new arm, not compared)\n", a.name, "-", a.new.RefsPerSec)
			continue
		case a.new.WallNanos == 0:
			regressions = append(regressions, fmt.Sprintf("%s: missing from %s", a.name, newPath))
			continue
		}
		delta := 0.0
		if a.old.RefsPerSec > 0 {
			delta = a.new.RefsPerSec/a.old.RefsPerSec - 1
		}
		verdict := "ok"
		if delta < -tolerance {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f refs/s (%+.1f%%, tolerance -%.0f%%)",
					a.name, a.old.RefsPerSec, a.new.RefsPerSec, 100*delta, 100*tolerance))
		}
		fmt.Printf("%-8s %12.0f -> %12.0f refs/s  %+6.1f%%  %s\n",
			a.name, a.old.RefsPerSec, a.new.RefsPerSec, 100*delta, verdict)
	}

	// The cross-arm speedup ratios (multi over live, snap over multi)
	// measure mechanisms — trace replay and the warm-state branch —
	// whose payoff depends on the host: how much regeneration costs
	// against a lockstep pass spread over the cores, and how much of
	// the pass the skipped warmup was. Judge the ratios only when both
	// files come from the same multi-core CPU count; otherwise report
	// them informationally.
	ratios := []struct {
		name     string
		old, new float64
	}{
		{"multi_speedup", oldFile.MultiSpeedup, newFile.MultiSpeedup},
		{"snap_speedup", oldFile.SnapSpeedup, newFile.SnapSpeedup},
	}
	judge := oldFile.NumCPU == newFile.NumCPU && newFile.NumCPU > 1
	for _, r := range ratios {
		switch {
		case r.old == 0 && r.new == 0:
			continue
		case r.old == 0:
			fmt.Printf("%-18s %8s -> %8.2fx  (new ratio, not compared)\n", r.name, "-", r.new)
			continue
		case r.new == 0:
			regressions = append(regressions, fmt.Sprintf("%s: missing from %s", r.name, newPath))
			continue
		case !judge:
			fmt.Printf("%-18s %8.2fx -> %8.2fx  (num_cpu %d vs %d, informational)\n",
				r.name, r.old, r.new, oldFile.NumCPU, newFile.NumCPU)
			continue
		}
		delta := r.new/r.old - 1
		verdict := "ok"
		if delta < -tolerance {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2fx -> %.2fx (%+.1f%%, tolerance -%.0f%%)",
					r.name, r.old, r.new, 100*delta, 100*tolerance))
		}
		fmt.Printf("%-18s %8.2fx -> %8.2fx  %+6.1f%%  %s\n", r.name, r.old, r.new, 100*delta, verdict)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d arm(s) regressed:\n  %s", len(regressions), joinLines(regressions))
	}
	return nil
}

func readSweep(path string) (*sweepFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f sweepFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Live.WallNanos == 0 {
		return nil, fmt.Errorf("%s: no live arm measurement", path)
	}
	return &f, nil
}

// compareBaselines diffs two BENCH_baseline.json files scheme by scheme
// and fails when any scheme's refs/sec dropped by more than tolerance
// (a fraction: 0.10 = 10%). Schemes present in old but missing from new
// fail too — a silently dropped measurement is how a regression hides;
// schemes new adds are reported but not judged (no reference point).
func compareBaselines(oldPath, newPath string, tolerance float64) error {
	oldFile, err := readBaseline(oldPath)
	if err != nil {
		return err
	}
	newFile, err := readBaseline(newPath)
	if err != nil {
		return err
	}
	if oldFile.Workload != newFile.Workload || oldFile.RefsPerCore != newFile.RefsPerCore || oldFile.Geometry != newFile.Geometry {
		return fmt.Errorf("baselines not comparable: %s/%s/%d refs vs %s/%s/%d refs",
			oldFile.Geometry, oldFile.Workload, oldFile.RefsPerCore,
			newFile.Geometry, newFile.Workload, newFile.RefsPerCore)
	}

	newBy := make(map[string]baselineEntry, len(newFile.Schemes))
	for _, e := range newFile.Schemes {
		newBy[e.Scheme] = e
	}
	seen := make(map[string]bool, len(oldFile.Schemes))
	var regressions []string
	for _, o := range oldFile.Schemes {
		seen[o.Scheme] = true
		n, ok := newBy[o.Scheme]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from %s", o.Scheme, newPath))
			continue
		}
		delta := 0.0
		if o.RefsPerSec > 0 {
			delta = n.RefsPerSec/o.RefsPerSec - 1
		}
		verdict := "ok"
		if delta < -tolerance {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f refs/s (%+.1f%%, tolerance -%.0f%%)",
					o.Scheme, o.RefsPerSec, n.RefsPerSec, 100*delta, 100*tolerance))
		}
		fmt.Printf("%-8s %12.0f -> %12.0f refs/s  %+6.1f%%  %s\n",
			o.Scheme, o.RefsPerSec, n.RefsPerSec, 100*delta, verdict)
	}
	for _, n := range newFile.Schemes {
		if !seen[n.Scheme] {
			fmt.Printf("%-8s %12s -> %12.0f refs/s  (new scheme, not compared)\n", n.Scheme, "-", n.RefsPerSec)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d scheme(s) regressed:\n  %s", len(regressions), joinLines(regressions))
	}
	return nil
}

func readBaseline(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f baselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Schemes) == 0 {
		return nil, fmt.Errorf("%s: no scheme entries", path)
	}
	return &f, nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
