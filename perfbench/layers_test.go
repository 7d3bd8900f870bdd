package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"redhip/internal/sim"
	"redhip/internal/workload"
)

const internalDir = "../internal"

func isBucket(b string) bool {
	for _, c := range cpuBuckets {
		if c == b {
			return true
		}
	}
	return false
}

// Every package under internal/ maps to exactly one bucket through an
// explicit entry, so a new package cannot fall into other.cpu_s unseen.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	err := filepath.WalkDir(internalDir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || strings.Contains(p, "testdata") {
			return err
		}
		rel, _ := filepath.Rel(internalDir, p)
		if rel == "." || !hasGoFiles(t, p) {
			return nil
		}
		top, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
		if _, ok := internalLayers[top]; !ok {
			t.Errorf("package internal/%s has no entry in internalLayers", rel)
		}
		if b := bucketOf(modulePrefix+"internal/"+filepath.ToSlash(rel)+".F", "f.go"); !isBucket(b) {
			t.Errorf("package internal/%s maps to %q, not a declared bucket", rel, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for top := range internalLayers {
		if _, err := os.Stat(filepath.Join(internalDir, top)); err != nil {
			t.Errorf("internalLayers lists %q, which no longer exists", top)
		}
	}
	for fn, want := range map[string]string{
		"net/http.(*conn).serve":                  "http.cpu_s",
		"encoding/json.(*encodeState).marshal":    "json.cpu_s",
		"runtime.mallocgc":                        "runtime.cpu_s",
		"internal/runtime/maps.(*Map).getWithKey": "runtime.cpu_s",
		"sort.Strings":                            "other.cpu_s",
		"main.main":                               "other.cpu_s",
	} {
		if got := bucketOf(fn, ""); got != want {
			t.Errorf("bucketOf(%s) = %s, want %s", fn, got, want)
		}
	}
}

func hasGoFiles(t *testing.T, dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// The sim split names functions and files; renaming one must fail here
// rather than silently move its samples into sim.loop_cpu_s.
func TestSimSplitNamesExist(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(internalDir, "sim", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	present := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		present[filepath.Base(f)] = true
		af, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && filepath.Base(f) == "engine.go" {
				declared[fd.Name.Name] = true
			}
		}
	}
	for _, fn := range append(append([]string(nil), simSchedFuncs...), simRecalFuncs...) {
		if !declared[fn] {
			t.Errorf("internal/sim/engine.go no longer declares %s", fn)
		}
	}
	for file := range simFileBuckets {
		if !present[file] {
			t.Errorf("internal/sim/%s no longer exists", file)
		}
	}
}

func TestSplitFunc(t *testing.T) {
	for _, c := range []struct{ fn, pkg, ident string }{
		{"redhip/internal/sim.(*engine).recalibrate.func1", "redhip/internal/sim", "recalibrate"},
		{"redhip/internal/sim.entLess", "redhip/internal/sim", "entLess"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
		{"net/http.(*conn).serve", "net/http", "serve"},
		{"slices.SortFunc[go.shape.[]string,go.shape.string]", "slices", "SortFunc"},
	} {
		if pkg, ident := splitFunc(c.fn); pkg != c.pkg || ident != c.ident {
			t.Errorf("splitFunc(%s) = %s, %s; want %s, %s", c.fn, pkg, ident, c.pkg, c.ident)
		}
	}
}

// The named buckets plus other.cpu_s account for every sample of a real
// profile of the simulator.
func TestBucketsAddUpToProfileTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	cfg := sim.Smoke()
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
		if err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
		if _, err := sim.Run(cfg, srcs); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) < 10 {
		t.Skipf("only %d samples; host too busy to check", len(prof.samples))
	}
	buckets := map[string]float64{}
	bucketProfile(prof, buckets)
	var sum float64
	for b, v := range buckets {
		if !isBucket(b) {
			t.Errorf("sample bucketed into undeclared %q", b)
		}
		sum += v
	}
	if total := float64(prof.totalNs) / 1e9; math.Abs(sum-total) > 1e-9 {
		t.Errorf("buckets sum to %.9fs, profile total is %.9fs", sum, total)
	}
	// The loop is simulation plus stream generation; the kernel must
	// outweigh generation even under -race, whose runtime takes a large
	// share of the samples.
	var kernel float64
	for _, b := range kernelBuckets {
		kernel += buckets[b]
	}
	if kernel == 0 || kernel < buckets["workload.cpu_s"] {
		t.Errorf("kernel buckets hold %.2fs of %.2fs: the simulator's frames are not being recognised (%v)", kernel, sum, buckets)
	}
}
