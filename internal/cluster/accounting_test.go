package cluster

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// routerCounters scrapes the router's submission counters.
func routerCounters(t *testing.T, routerURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(strings.TrimSuffix(name, "_total"), "redhip_router_")] = v
		}
	}
	return out
}

// newHangupReplica is a replica whose /readyz passes but which drops
// every job submission's connection unanswered: unreachable for
// submissions, yet never declared dead.
func newHangupReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"ready":true}`)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &fakeReplica{t: t, name: name, srv: srv}
}

// TestRouterSubmissionAccounting: jobs_submitted counts exactly the
// 202 answers, and every refusal lands once — under rejected when the
// router refuses (no ready replica, replica unreachable, table full),
// under proxied_rejections when it forwards a replica's verdict.
func TestRouterSubmissionAccounting(t *testing.T) {
	cases := []struct {
		name    string
		replica string // "", "accept", "stall", "hangup" or "reject"
		maxJobs int
		specs   []int // testSpec numbers, submitted in order
		codes   []int
		want    map[string]float64
	}{
		{"accepted", "accept", 64, []int{0}, []int{202},
			map[string]float64{"jobs_submitted": 1}},
		{"deduped", "stall", 64, []int{0, 0}, []int{202, 202},
			map[string]float64{"jobs_submitted": 2, "jobs_deduped": 1}},
		{"no ready replica", "", 64, []int{0}, []int{503},
			map[string]float64{"jobs_rejected": 1}},
		{"replica unreachable", "hangup", 64, []int{0}, []int{502},
			map[string]float64{"jobs_rejected": 1}},
		{"replica rejects", "reject", 64, []int{0}, []int{429},
			map[string]float64{"proxied_rejections": 1}},
		{"table full", "stall", 1, []int{0, 1}, []int{202, 429},
			map[string]float64{"jobs_submitted": 1, "jobs_rejected": 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, url := newTestRouterMaxJobs(t, tc.maxJobs)
			if tc.replica != "" {
				var f *fakeReplica
				if tc.replica == "hangup" {
					f = newHangupReplica(t, "alpha")
				} else {
					f = newFakeReplica(t, "alpha")
					if tc.replica == "stall" {
						f.mode.Store("stall")
					}
					if tc.replica == "reject" {
						f.setReject(http.StatusTooManyRequests, "3", `{"error":"job queue full"}`)
					}
				}
				if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
					t.Fatalf("register = %d (%s)", code, body)
				}
				waitFor(t, "replica in ring", func() bool { return rt.members.Ring().Size() == 1 })
			}
			for i, n := range tc.specs {
				if resp, _ := submitJob(t, url, testSpec(n)); resp.StatusCode != tc.codes[i] {
					t.Fatalf("submission %d = %d, want %d", i, resp.StatusCode, tc.codes[i])
				}
			}
			got := routerCounters(t, url)
			for _, name := range []string{"jobs_submitted", "jobs_deduped", "jobs_rejected", "proxied_rejections"} {
				if got[name] != tc.want[name] {
					t.Errorf("%s = %g, want %g", name, got[name], tc.want[name])
				}
			}
		})
	}
}

// TestRouterJobTableFull: with MaxJobs routed jobs live, a new spec is
// refused 429 "job table full" with a Retry-After; once one of them
// ends, its slot is reclaimed by evicting it.
func TestRouterJobTableFull(t *testing.T) {
	rt, url := newTestRouterMaxJobs(t, 2)
	f := newFakeReplica(t, "alpha")
	f.mode.Store("stall")
	if code, body := register(t, url, f, "test-v1"); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, body)
	}
	waitFor(t, "replica in ring", func() bool { return rt.members.Ring().Size() == 1 })

	var ids []string
	for n := 0; n < 2; n++ {
		resp, sub := submitJob(t, url, testSpec(n))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d = %d, want 202", n, resp.StatusCode)
		}
		ids = append(ids, sub.ID)
	}
	resp, _ := submitJob(t, url, testSpec(2))
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission into a full table = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "5" {
		t.Fatalf("Retry-After = %q, want 5", resp.Header.Get("Retry-After"))
	}
	if want := `"error": "cluster: job table full (2 live jobs)"`; !strings.Contains(string(raw), want) {
		t.Fatalf("body = %s, want it to contain %s", raw, want)
	}

	f.mode.Store("done")
	for _, id := range ids {
		waitRouted(t, url, id, "done")
	}
	if resp, _ := submitJob(t, url, testSpec(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission after a job ended = %d, want 202", resp.StatusCode)
	}
	if st, err := http.Get(url + "/v1/jobs/" + ids[0]); err != nil || st.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest done job not evicted to make room (err %v)", err)
	} else {
		st.Body.Close()
	}
}
