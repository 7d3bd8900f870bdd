package main

import "redhip/internal/serve"

// The serve-closed job mix. Each client draws its own spec sequence
// from (seed, client), so the same seed replays the same requests per
// client whatever the timing.
type jobKind int

const (
	// kindFresh simulates a stream no earlier job used: the replica's
	// trace store materialises it (a write).
	kindFresh jobKind = iota
	// kindShared re-simulates an earlier stream of this client under a
	// different scheme subset: a new job whose stream the trace store
	// may already hold (a read, when placement lands on the same
	// replica).
	kindShared
	// kindRepeat resubmits an earlier spec of this client verbatim: a
	// dedup hit served from the router's result cache.
	kindRepeat
)

// Target shares of the mix, in percent; fresh takes the remainder.
const (
	sharedPct = 20
	repeatPct = 10
)

// recentStreams bounds how far back a shared-stream job reaches, so its
// stream is still likely resident in the replica's trace store.
const recentStreams = 4

// mixWorkloads are the paper workloads jobs draw from.
var mixWorkloads = []string{"mcf", "cactusADM", "milc", "astar", "lbm", "soplex"}

// mixSchemeSets are the scheme subsets a job asks for.
var mixSchemeSets = [][]string{
	{"base", "redhip"},
	{"base", "phased", "redhip"},
	{"base", "cbf", "redhip"},
	{"base", "redhip", "oracle"},
}

// mixRefsPerCore sizes a job at the smoke geometry to about 100 ms of
// simulation on one core.
const mixRefsPerCore = 60_000

type mixJob struct {
	kind jobKind
	set  int // index into mixSchemeSets
	spec serve.Spec
}

// specGen is one client's deterministic spec sequence.
type specGen struct {
	rng     uint64
	history []mixJob // this client's earlier jobs
	fresh   []mixJob // this client's earlier fresh jobs
}

func newSpecGen(seed uint64, client int) *specGen {
	return &specGen{rng: seed*0x9e3779b97f4a7c15 ^ uint64(client+1)*0xbf58476d1ce4e5b9}
}

// next draws a value from splitmix64.
func (g *specGen) next() uint64 {
	g.rng += 0x9e3779b97f4a7c15
	z := g.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (g *specGen) pick(n int) int { return int(g.next() % uint64(n)) }

// nextJob returns the client's next job. The first is always fresh.
func (g *specGen) nextJob() mixJob {
	var j mixJob
	roll := g.pick(100)
	switch {
	case len(g.history) > 0 && roll < repeatPct:
		j = g.history[g.pick(len(g.history))]
		j.kind = kindRepeat
	case len(g.fresh) > 0 && roll < repeatPct+sharedPct:
		recent := g.fresh[max(0, len(g.fresh)-recentStreams):]
		j = recent[g.pick(len(recent))]
		j.kind = kindShared
		// A different scheme subset over the same stream.
		j.set = (j.set + 1 + g.pick(len(mixSchemeSets)-1)) % len(mixSchemeSets)
		j.spec.Schemes = mixSchemeSets[j.set]
	default:
		wl := mixWorkloads[g.pick(len(mixWorkloads))]
		set := g.pick(len(mixSchemeSets))
		j = mixJob{kind: kindFresh, set: set, spec: serve.Spec{
			Workloads:   []string{wl},
			Schemes:     mixSchemeSets[set],
			Geometry:    "smoke",
			Seed:        g.next() | 1, // a fresh stream; never 0, which means "default"
			RefsPerCore: mixRefsPerCore,
		}}
		g.fresh = append(g.fresh, j)
	}
	if j.kind != kindRepeat {
		g.history = append(g.history, j)
	}
	return j
}
