package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1},
	} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it, and the summary carries the sample count.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {100, 90},
		{40, 75}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	v := make([]float64, 1000)
	for i := range v {
		v[len(v)-1-i] = float64(i)
	}
	s := summarize(v)
	if s.N != 1000 || s.P50 != 499 || s.Tail != 99 || s.TailAt != 989 || s.P99 != 989 {
		t.Errorf("summarize = %+v, want n=1000 p50=499 tail=99@989", s)
	}
}

// A span's self time is its duration minus the union of its children's
// intervals, clipped to the parent.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", start: 0, end: 100 * ms, parent: -1},
		{name: "a", start: 10 * ms, end: 30 * ms, parent: 0},
		{name: "b", start: 20 * ms, end: 50 * ms, parent: 0}, // overlaps a
		{name: "c", start: 60 * ms, end: 70 * ms, parent: 0},
		{name: "d", start: 90 * ms, end: 120 * ms, parent: 0}, // runs past root
		{name: "b1", start: 25 * ms, end: 35 * ms, parent: 2},
	}
	got := selfTimes(spans)
	want := []time.Duration{40 * ms, 20 * ms, 20 * ms, 10 * ms, 30 * ms, 10 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", -1, -1)
	tr.end(i)
	if i != -1 || len(tr.byName()) != 0 {
		t.Fatalf("nil tracer recorded span %d", i)
	}
}

// sseServer answers every completion with a well-formed stream; the
// first request it serves stalls for stall before answering.
func sseServer(stall time.Duration) *httptest.Server {
	var served atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: admission\ndata: {}\n\nevent: first_token\ndata: {}\n\n")
		for i := 0; i < gatewayOutput; i++ {
			fmt.Fprint(w, "event: token\ndata: {}\n\n")
		}
		fmt.Fprint(w, "event: completion\ndata: {}\n\ndata: [DONE]\n\n")
	}))
}

// In the open loop a request's latency runs from when it was due, so a
// stall ahead of it on the only connection is charged to it too.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	srv := sseServer(stall)
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	recs := openPhase(client, srv.URL, 1, []time.Duration{0, time.Millisecond, 2 * time.Millisecond})
	for i := range recs {
		if !recs[i].ok() {
			t.Fatalf("request %d: %s", i, recs[i].describe())
		}
	}
	second := &recs[1]
	fromDue, fromSend := second.first.Sub(second.due), second.first.Sub(second.send)
	if fromDue < stall-5*time.Millisecond {
		t.Errorf("second request: %v from due, want at least the %v stall ahead of it", fromDue, stall)
	}
	if fromSend >= stall/2 {
		t.Errorf("second request: %v from send; the stall belongs before its send", fromSend)
	}
	if late := second.send.Sub(second.due); late < stall-5*time.Millisecond {
		t.Errorf("second request sent %v late, want about the %v stall", late, stall)
	}
}

// Every workload runs through its output checks at smoke size, in both
// modes, and reports every declared metric.
func TestSmokeWorkloads(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				cfg := config{workload: name, seed: 7, seconds: 0.01, trace: trace, gatewayRate: 2000, smoke: true}
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range rep.checks {
					t.Errorf("check failed: %s", c)
				}
				if rep.attempted == 0 || rep.failed != 0 {
					t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
				}
				line, err := resultLine(cfg, rep)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct bool
					Metrics map[string]metricValue
				}
				if err := json.Unmarshal(line, &out); err != nil {
					t.Fatal(err)
				}
				want := len(endToEnd)
				if trace {
					want = len(perLayer)
				}
				if !out.Correct || len(out.Metrics) != want {
					t.Errorf("correct=%t with %d metrics, want %d", out.Correct, len(out.Metrics), want)
				}
			})
		}
	}
}

// A failed output check makes the result incorrect.
func TestFailedCheckIsIncorrect(t *testing.T) {
	rep := newReport()
	rep.attempted = 1
	rep.check(false, "stream %d broke", 3)
	line, err := resultLine(config{workload: "replay"}, rep)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Correct bool }
	if err := json.Unmarshal(line, &out); err != nil || out.Correct {
		t.Fatalf("result %s (err %v), want correct=false", line, err)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		decl []metricDecl
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.decl) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.kind, len(c.json), len(c.decl))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.decl[i].name || m.Unit != c.decl[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", c.kind, i, m.Name, m.Unit, c.decl[i].name, c.decl[i].unit)
			}
		}
	}
}
