package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"redhip/internal/cluster"
	"redhip/internal/serve"
	"redhip/internal/sim"
	"redhip/internal/workload"
)

// serveReplicas is the cluster size; each replica runs one worker.
const serveReplicas = 2

// rateWindow is the window serve-closed's rates are medians over.
const rateWindow = 5 * time.Second

// serveWarmup is run before timing so every replica has materialised
// streams and warmed its heap; its jobs are checked but not timed.
const serveWarmup = 2 * time.Second

// replicaTraceBytes bounds each replica's trace store: a few dozen
// smoke streams, so the store evicts and the process stays small.
const replicaTraceBytes = 64 << 20

// referenceSample bounds how many distinct specs per run are re-run
// in-process to check their /results bytes.
const referenceSample = 16

// rig is an in-process router with its replicas on loopback.
type rig struct {
	router    *cluster.Router
	routerURL string
	replicas  []*replica
	servers   []*http.Server
	serving   sync.WaitGroup
}

type replica struct {
	name, url string
	srv       *serve.Server
}

// bootRig starts the router and the replicas and returns once every
// replica is in the ring. The router's probe-jitter seed is fixed: it is
// configuration, not input, and it sets how long joining takes.
func bootRig() (*rig, error) {
	r := &rig{}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.routerURL = "http://" + rl.Addr().String()
	if r.router, err = cluster.New(cluster.Options{Seed: 1}); err != nil {
		return nil, err
	}
	r.serve(rl, r.router.Handler())
	for i := 0; i < serveReplicas; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		rep := &replica{name: fmt.Sprintf("replica-%d", i), url: "http://" + l.Addr().String()}
		rep.srv, err = serve.New(serve.Options{
			Workers:         1,
			TraceCacheBytes: replicaTraceBytes,
			RouterURL:       r.routerURL,
			AdvertiseURL:    rep.url,
			ReplicaName:     rep.name,
		})
		if err != nil {
			_ = l.Close()
			r.close()
			return nil, err
		}
		r.replicas = append(r.replicas, rep)
		r.serve(l, rep.srv.Handler())
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st struct {
			RingSize int `json:"ring_size"`
		}
		if err := getJSON(http.DefaultClient, r.routerURL+"/v1/cluster/status", &st); err == nil && st.RingSize == serveReplicas {
			return r, nil
		}
		if time.Now().After(deadline) {
			r.close()
			return nil, errors.New("serve-closed: replicas never joined the ring")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *rig) serve(l net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	r.servers = append(r.servers, hs)
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		_ = hs.Serve(l) // returns http.ErrServerClosed on close
	}()
}

// close stops everything bootRig started and waits for it.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if r.router != nil {
		_ = r.router.Shutdown(ctx)
	}
	for _, rep := range r.replicas {
		_ = rep.srv.Shutdown(ctx)
	}
	for _, hs := range r.servers {
		_ = hs.Close()
	}
	r.serving.Wait()
}

// jobRecord is what one client observed of one job.
type jobRecord struct {
	kind      jobKind
	key       string // canonical spec key
	spec      serve.Spec
	ok        bool
	deduped   bool
	rejected  bool
	ttr       time.Duration
	done      time.Time // when the results body was read
	submit    time.Duration
	results   time.Duration
	bodyHash  uint64
	bodyBytes int
	refs      uint64
	// Traced jobs only: the replica's own timestamps, and the decoded
	// results for the simulator counters.
	queueWait, exec, life time.Duration
	stamped               bool
	decoded               []*sim.Result
}

func runServeClosed(o runOpts) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: newLayerMap()}
	r, setupS, err := timeSetup(serveSetupRepeats, bootRig, (*rig).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	out.e2e["setup_s"] = setupS

	clients := runtime.NumCPU()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * clients}}
	defer hc.CloseIdleConnections()
	gens := make([]*specGen, clients)
	for c := range gens {
		gens[c] = newSpecGen(o.seed, c)
	}

	// phase drives every client closed-loop until the deadline and
	// returns the records and the phase's wall time.
	phase := func(d time.Duration, traced bool) ([]jobRecord, time.Duration) {
		start := time.Now()
		deadline := start.Add(d)
		recs := make([][]jobRecord, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					recs[c] = append(recs[c], runJob(hc, r, gens[c].nextJob(), traced))
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		var all []jobRecord
		for _, rs := range recs {
			all = append(all, rs...)
		}
		return all, wall
	}

	warm, _ := phase(serveWarmup, false)
	total := time.Duration(o.seconds * float64(time.Second))
	var recs, tracedRecs []jobRecord
	var wall, tracedWall time.Duration
	var prof *profiler
	var before, after []promSample
	start := time.Now()
	if !o.trace {
		recs, wall = phase(total, false)
	} else {
		// Untraced first half, profiled second half with the extra
		// status requests: the pair gives bench.trace_overhead.
		recs, wall = phase(total/2, false)
		prof = newProfiler()
		defer prof.stopIfActive()
		before = scrapeReplicas(hc, r)
		if err := prof.begin(); err != nil {
			return nil, err
		}
		tracedRecs, tracedWall = phase(total/2, true)
		if err := prof.end(out.layer); err != nil {
			return nil, err
		}
		after = scrapeReplicas(hc, r)
	}
	out.e2e["peak_rss_mb"] = peakRSSMiB()

	all := append(append(warm, recs...), tracedRecs...)
	out.attempted = len(all)
	out.failed = checkServeResults(all, o.seed)
	out.ops = len(recs) + len(tracedRecs)

	// Rates are medians over five-second windows of completions, so a
	// stretch slowed by a noisy neighbour does not move the run's figure.
	// Failed jobs deliver nothing and are already counted in failed.
	var ttr []float64
	nWin := max(1, int(wall/rateWindow))
	jobsWin, refsWin := make([]float64, nWin), make([]float64, nWin)
	for _, rec := range recs {
		if !rec.ok {
			continue
		}
		ttr = append(ttr, float64(rec.ttr.Microseconds())/1000)
		if w := int(rec.done.Sub(start) / rateWindow); w < nWin {
			jobsWin[w]++
			refsWin[w] += float64(rec.refs)
		}
	}
	secs := rateWindow.Seconds()
	if nWin == 1 {
		secs = wall.Seconds()
	}
	for w := range jobsWin {
		jobsWin[w] /= secs
		refsWin[w] /= secs
	}
	out.e2e["ttr_p50_ms"] = percentile(append([]float64(nil), ttr...), 50)
	out.e2e["ttr_p90_ms"] = percentile(ttr, 90)
	out.e2e["jobs_per_s"] = median(jobsWin)
	out.e2e["refs_per_s"] = median(refsWin)
	out.e2e["ok_frac"] = 1 - ratio(float64(out.failed), float64(out.attempted))

	if o.trace {
		serveLayers(out.layer, tracedRecs, before, after)
		prof.report(out.layer)
		var c simCounters
		for _, rec := range tracedRecs {
			for _, res := range rec.decoded {
				c.add(res)
			}
		}
		c.report(out.layer, prof.kernelCPU())
		perJob := func(rs []jobRecord, w time.Duration) float64 { return ratio(w.Seconds(), float64(len(rs))) }
		out.layer["bench.trace_overhead"] = ratio(perJob(tracedRecs, tracedWall), perJob(recs, wall)) - 1
		out.layer["bench.ttr_samples"] = float64(len(recs) + len(tracedRecs))
	}
	return out, nil
}

// runJob submits one spec through the router, follows its SSE stream
// to the terminal event and reads its results.
func runJob(hc *http.Client, r *rig, j mixJob, traced bool) jobRecord {
	rec := jobRecord{kind: j.kind, spec: j.spec}
	if norm, err := j.spec.Normalized(); err == nil {
		rec.key = norm.CanonicalKey()
	}
	body, _ := json.Marshal(j.spec) // a Spec is plain data
	t0 := time.Now()
	resp, err := hc.Post(r.routerURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return rec
	}
	var sub struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	rec.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		rec.rejected = true
		return rec
	}
	rec.deduped = sub.Deduped

	if state, err := followEvents(hc, r.routerURL+"/v1/jobs/"+sub.ID+"/events"); err != nil || state != string(serve.StateDone) {
		fmt.Fprintf(os.Stderr, "perfbench: job %s ended %q (%v)\n", sub.ID, state, err)
		return rec
	}
	t1 := time.Now()
	resp, err = hc.Get(r.routerURL + "/v1/jobs/" + sub.ID + "/results")
	if err != nil {
		return rec
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	now := time.Now()
	rec.results, rec.ttr, rec.done = now.Sub(t1), now.Sub(t0), now
	if resp.StatusCode != http.StatusOK || err != nil {
		return rec
	}
	h := fnv.New64a()
	h.Write(raw)
	rec.bodyHash, rec.bodyBytes = h.Sum64(), len(raw)

	if traced {
		if err := json.Unmarshal(raw, &rec.decoded); err != nil {
			return rec
		}
		for _, res := range rec.decoded {
			rec.refs += res.Refs
		}
		if !rec.deduped {
			rec.stamped = stampReplicaTimes(hc, r, sub.ID, &rec)
		}
	} else {
		var lite []struct{ Refs uint64 }
		if err := json.Unmarshal(raw, &lite); err != nil {
			return rec
		}
		for _, res := range lite {
			rec.refs += res.Refs
		}
	}
	rec.ok = true
	return rec
}

// followEvents reads an SSE stream until a terminal event and returns
// its type.
func followEvents(hc *http.Client, url string) (string, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch serve.State(ev) {
		case serve.StateDone, serve.StateFailed, serve.StateCancelled:
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("events: stream ended before a terminal event")
}

// stampReplicaTimes reads the executing replica's timestamps of a
// routed job: queue wait, execution and the replica-side lifetime.
func stampReplicaTimes(hc *http.Client, r *rig, id string, rec *jobRecord) bool {
	var routed struct {
		Replica      string `json:"replica"`
		ReplicaJobID string `json:"replica_job_id"`
	}
	if err := getJSON(hc, r.routerURL+"/v1/jobs/"+id+"?results=false", &routed); err != nil {
		return false
	}
	var base string
	for _, rep := range r.replicas {
		if rep.name == routed.Replica {
			base = rep.url
		}
	}
	var st struct {
		SubmittedAt time.Time  `json:"submitted_at"`
		StartedAt   *time.Time `json:"started_at"`
		FinishedAt  *time.Time `json:"finished_at"`
	}
	if base == "" || getJSON(hc, base+"/v1/jobs/"+routed.ReplicaJobID+"?results=false", &st) != nil ||
		st.StartedAt == nil || st.FinishedAt == nil {
		return false
	}
	rec.queueWait = st.StartedAt.Sub(st.SubmittedAt)
	rec.exec = st.FinishedAt.Sub(*st.StartedAt)
	rec.life = st.FinishedAt.Sub(st.SubmittedAt)
	return true
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkServeResults counts wrong answers: failed or rejected jobs,
// repeats of a spec whose bytes differ from its first answer, and jobs
// of a seeded sample of distinct specs whose bytes differ from an
// in-process run of the same spec.
func checkServeResults(recs []jobRecord, seed uint64) int {
	failed := 0
	first := map[string]uint64{}
	specs := map[string]serve.Spec{}
	for _, rec := range recs {
		if !rec.ok {
			failed++
			continue
		}
		if h, ok := first[rec.key]; !ok {
			first[rec.key], specs[rec.key] = rec.bodyHash, rec.spec
		} else if h != rec.bodyHash {
			fmt.Fprintf(os.Stderr, "perfbench: spec %s answered with different bytes\n", rec.key)
			failed++
		}
	}
	keys := make([]string, 0, len(specs))
	for k := range specs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	g := newSpecGen(seed, -1)
	for i := len(keys) - 1; i > 0; i-- { // seeded shuffle, then the first few
		k := g.pick(i + 1)
		keys[i], keys[k] = keys[k], keys[i]
	}
	if len(keys) > referenceSample {
		keys = keys[:referenceSample]
	}
	for _, k := range keys {
		want, err := referenceBodyHash(specs[k])
		if err == nil && want == first[k] {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: spec %s: results differ from the in-process reference (%v)\n", k, err)
		for _, rec := range recs {
			if rec.ok && rec.key == k {
				failed++
			}
		}
	}
	return failed
}

// referenceBodyHash runs a spec in-process with independent sim.Run
// calls over live generators and hashes the /results body the replica
// should have produced for it.
func referenceBodyHash(spec serve.Spec) (uint64, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return 0, err
	}
	var results []*sim.Result
	for _, wl := range norm.Workloads {
		for _, name := range norm.Schemes {
			sc, err := parseScheme(name)
			if err != nil {
				return 0, err
			}
			cfg := specConfig(norm, sc)
			srcs, err := workload.Sources(wl, cfg.Cores, cfg.WorkloadScale, norm.Seed)
			if err != nil {
				return 0, err
			}
			res, err := sim.Run(cfg, srcs)
			if err != nil {
				return 0, err
			}
			res.Workload = wl
			results = append(results, res)
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ") // the replica's response encoding
	if err := enc.Encode(results); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64(), nil
}

// specConfig is the sim.Config a replica runs for one scheme of a mix
// spec: the smoke preset with the spec's overrides (serve.Spec's own
// mapping, restricted to the fields the mix sets).
func specConfig(spec serve.Spec, scheme sim.Scheme) sim.Config {
	c := sim.Smoke().WithScheme(scheme)
	if spec.RefsPerCore > 0 {
		c.RefsPerCore = spec.RefsPerCore
	}
	return c
}

func parseScheme(name string) (sim.Scheme, error) {
	for _, sc := range sim.Schemes() {
		if sc.String() == name {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

// promSample is one replica's /metrics scrape: metric name -> value
// (labelled series summed).
type promSample map[string]float64

func scrapeReplicas(hc *http.Client, r *rig) []promSample {
	out := make([]promSample, len(r.replicas))
	for i, rep := range r.replicas {
		out[i] = promSample{}
		resp, err := hc.Get(rep.url + "/metrics")
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			name, _, _ = strings.Cut(name, "{")
			if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
				out[i][name] += v
			}
		}
		resp.Body.Close()
	}
	return out
}

// serveLayers derives the serve, cluster, mix and trace-store metrics
// of the traced phase.
func serveLayers(l map[string]float64, recs []jobRecord, before, after []promSample) {
	var queue, exec, results, submit, hop, kb []float64
	var deduped, rejects float64
	kinds := [3]float64{}
	for _, rec := range recs {
		kinds[rec.kind]++
		if rec.rejected {
			rejects++
		}
		if !rec.ok {
			continue
		}
		if rec.deduped {
			deduped++
		}
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		submit = append(submit, ms(rec.submit))
		results = append(results, ms(rec.results))
		kb = append(kb, float64(rec.bodyBytes)/1024)
		if rec.stamped {
			queue = append(queue, ms(rec.queueWait))
			exec = append(exec, ms(rec.exec))
			hop = append(hop, ms(rec.ttr-rec.life-rec.results))
		}
	}
	n := float64(len(recs))
	l["serve.queue_wait_ms_p50"] = percentile(append([]float64(nil), queue...), 50)
	l["serve.queue_wait_ms_p99"] = percentile(queue, 99)
	l["serve.exec_ms_p50"] = percentile(exec, 50)
	l["serve.results_ms_p50"] = percentile(results, 50)
	var sumKB float64
	for _, v := range kb {
		sumKB += v
	}
	l["serve.results_kb"] = ratio(sumKB, float64(len(kb)))
	l["serve.dedup_ratio"] = ratio(deduped, n)
	l["serve.rejects"] = rejects
	l["cluster.submit_ms_p50"] = percentile(submit, 50)
	l["cluster.hop_ms_p50"] = percentile(hop, 50)
	l["mix.fresh_share"] = ratio(kinds[kindFresh], n)
	l["mix.shared_share"] = ratio(kinds[kindShared], n)
	l["mix.repeat_share"] = ratio(kinds[kindRepeat], n)

	delta := func(name string) (sum float64, per []float64) {
		for i := range after {
			d := after[i][name] - before[i][name]
			sum += d
			per = append(per, d)
		}
		return sum, per
	}
	_, done := delta("redhip_serve_executions_done_total")
	if len(done) > 0 {
		lo, hi := done[0], done[0]
		for _, d := range done {
			lo, hi = min(lo, d), max(hi, d)
		}
		l["cluster.skew"] = ratio(hi, lo)
	}
	hits, _ := delta("redhip_tracestore_hits_total")
	misses, _ := delta("redhip_tracestore_misses_total")
	mats, _ := delta("redhip_tracestore_materializations_total")
	matNs, _ := delta("redhip_tracestore_materialize_nanos_total")
	l["tracestore.hit_ratio"] = ratio(hits, hits+misses)
	l["tracestore.materializations"] = mats
	l["tracestore.materialize_s"] = matNs / 1e9
	var bytes float64
	for _, s := range after {
		bytes += s["redhip_tracestore_bytes"]
	}
	l["tracestore.mb"] = bytes / (1 << 20)
}
