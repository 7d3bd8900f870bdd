package main

import (
	"path"
	"strings"
)

// The CPU buckets of a traced run. Every profile sample lands in
// exactly one of them (sampleBucket is total), so they add up to the
// profile's total CPU time.
var cpuBuckets = []string{
	"experiment.cpu_s",
	"sim.loop_cpu_s", "sim.sched_cpu_s", "sim.recal_cpu_s", "sim.lockstep_cpu_s",
	"cache.cpu_s", "core.cpu_s", "predictor.cpu_s", "prefetch.cpu_s",
	"workload.cpu_s", "tracestore.cpu_s", "simstate.cpu_s",
	"serve.cpu_s", "cluster.cpu_s", "http.cpu_s", "json.cpu_s",
	"runtime.cpu_s", "other.cpu_s",
}

// kernelBuckets are the simulation kernel: the buckets sim.ns_per_ref
// divides by the simulated references.
var kernelBuckets = []string{
	"sim.loop_cpu_s", "sim.sched_cpu_s", "sim.recal_cpu_s", "sim.lockstep_cpu_s",
	"cache.cpu_s", "core.cpu_s", "predictor.cpu_s", "prefetch.cpu_s",
}

// internalLayers maps each top-level package directory under internal/
// (subpackages inherit their parent's entry) to its bucket. A package
// missing here falls into other.cpu_s; the layer-map test fails until it
// is listed, so a new package is bucketed on purpose.
var internalLayers = map[string]string{
	"analysis":     "other.cpu_s", // the lint suite; never on a benchmark path
	"cache":        "cache.cpu_s",
	"cluster":      "cluster.cpu_s",
	"core":         "core.cpu_s",
	"energy":       "sim.loop_cpu_s", // per-access energy accounting inside the walk
	"experiment":   "experiment.cpu_s",
	"faultinject":  "other.cpu_s",
	"loadgen":      "other.cpu_s",
	"memaddr":      "cache.cpu_s", // block-address arithmetic of the tag walks
	"predictor":    "predictor.cpu_s",
	"prefetch":     "prefetch.cpu_s",
	"redhipassert": "other.cpu_s",
	"serve":        "serve.cpu_s",
	"sim":          "", // split by file and function: simBucket
	"simstate":     "simstate.cpu_s",
	"stats":        "experiment.cpu_s", // figure tables
	"sweep":        "serve.cpu_s",      // sweep orchestration behind redhip-serve
	"trace":        "workload.cpu_s",   // trace records and decode
	"tracestore":   "tracestore.cpu_s",
	"version":      "other.cpu_s",
	"workload":     "workload.cpu_s",
}

// stdLayers maps standard-library package prefixes to buckets; the
// longest matching prefix wins. Unlisted packages (and the benchmark's
// own code) fall into other.cpu_s.
var stdLayers = map[string]string{
	"net":              "http.cpu_s", // net/http, its transport and the sockets under it
	"internal/poll":    "http.cpu_s",
	"syscall":          "http.cpu_s",
	"bufio":            "http.cpu_s",
	"encoding/json":    "json.cpu_s",
	"reflect":          "json.cpu_s", // driven by encoding/json
	"runtime":          "runtime.cpu_s",
	"internal/runtime": "runtime.cpu_s",
	"sync":             "runtime.cpu_s",
}

// simSchedFuncs and simRecalFuncs name the engine methods of the
// core-scheduler heap and of recalibration; the rest of the engine is
// the per-reference loop. The layer-map test checks each still exists.
var (
	simSchedFuncs = []string{"leadChange", "rootSecond", "entLess", "heapInit", "heapRefresh", "siftDown", "heapPop"}
	simRecalFuncs = []string{"recalibrate"}
)

// simFileBuckets splits package sim by source file: the lockstep
// multi-scheme engine, snapshot capture and restore, and the rest.
var simFileBuckets = map[string]string{
	"multi.go":    "sim.lockstep_cpu_s",
	"front.go":    "sim.lockstep_cpu_s",
	"snapshot.go": "simstate.cpu_s",
}

const modulePrefix = "redhip/"

// sampleBucket attributes a sample to the innermost frame that belongs
// to a named layer, so a standard-library helper (sort, crc64, sha256)
// counts toward the layer that called it. A stack with no such frame
// is other.cpu_s.
func sampleBucket(stack []frame) string {
	for _, f := range stack {
		if b := bucketOf(f.fn, f.file); b != "other.cpu_s" {
			return b
		}
	}
	return "other.cpu_s"
}

// bucketOf returns the bucket of one frame's function.
func bucketOf(fn, file string) string {
	pkg, ident := splitFunc(fn)
	if rest, ok := strings.CutPrefix(pkg, modulePrefix+"internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		b, ok := internalLayers[top]
		switch {
		case !ok:
			return "other.cpu_s"
		case b == "":
			return simBucket(ident, file)
		}
		return b
	}
	best, bucket := -1, "other.cpu_s"
	for prefix, b := range stdLayers {
		if (pkg == prefix || strings.HasPrefix(pkg, prefix+"/")) && len(prefix) > best {
			best, bucket = len(prefix), b
		}
	}
	return bucket
}

func simBucket(ident, file string) string {
	if b, ok := simFileBuckets[path.Base(file)]; ok {
		return b
	}
	for _, f := range simSchedFuncs {
		if ident == f {
			return "sim.sched_cpu_s"
		}
	}
	for _, f := range simRecalFuncs {
		if ident == f {
			return "sim.recal_cpu_s"
		}
	}
	return "sim.loop_cpu_s"
}

// splitFunc splits a symbol such as
// "redhip/internal/sim.(*engine).recalibrate.func1" into its package
// path and its top-level function or method name ("recalibrate").
func splitFunc(fn string) (pkg, ident string) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: the shape list may hold dots
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	pkg, rest := fn[:slash+1+dot], fn[slash+1+dot+1:]
	if strings.HasPrefix(rest, "(") {
		if _, after, ok := strings.Cut(rest, ")."); ok {
			rest = after
		}
	}
	ident, _, _ = strings.Cut(rest, ".")
	return pkg, ident
}

// bucketProfile adds a profile's samples into per-bucket CPU seconds.
func bucketProfile(p *cpuProfile, into map[string]float64) {
	for _, s := range p.samples {
		into[sampleBucket(s.stack)] += float64(s.ns) / 1e9
	}
}
