package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
)

// profiler CPU-profiles the traced portions of a run and accumulates
// their samples into the layer buckets.
type profiler struct {
	buf     bytes.Buffer
	buckets map[string]float64
	start   rtCounters
	active  bool
}

func newProfiler() *profiler {
	return &profiler{buckets: make(map[string]float64, len(cpuBuckets))}
}

// begin starts one profiled segment.
func (p *profiler) begin() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	p.active = true
	p.start = readRT()
	return nil
}

// end stops the segment, buckets its samples and adds the runtime
// counter deltas to layer.
func (p *profiler) end(layer map[string]float64) error {
	addRT(layer, p.start)
	pprof.StopCPUProfile()
	p.active = false
	prof, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	bucketProfile(prof, p.buckets)
	return nil
}

// stopIfActive ends a segment left open by an error path.
func (p *profiler) stopIfActive() {
	if p.active {
		pprof.StopCPUProfile()
		p.active = false
	}
}

// report copies the bucket totals into layer, which already holds a
// zero for every bucket.
func (p *profiler) report(layer map[string]float64) {
	for b, v := range p.buckets {
		layer[b] = v
	}
}

// kernelCPU sums the simulation-kernel buckets.
func (p *profiler) kernelCPU() float64 {
	var s float64
	for _, b := range kernelBuckets {
		s += p.buckets[b]
	}
	return s
}
