// Command perfbench is the repository's benchmark: one command that runs
// a workload through the public entry points, checks its outputs, and
// prints every metric by name with its unit.
//
//	bash perfbench/run.sh --gateway-rate 2500 --workload replay --seed 1 --seconds 20 --trace 0
//
// Four workloads stress different layers (see WORKLOADS.md for why each
// exists and which layers it should and should not move):
//
//	paper    one pass of every paper table and figure, plus the live decoder
//	replay   an open-loop Poisson trace through one scale-mode Session
//	fleet    conversation + RAG prefix traffic through an 8-replica Cluster
//	gateway  live SSE streams through the HTTP gateway on loopback TCP
//
// With --trace 0 the last stdout line carries the end-to-end metrics,
// measured with tracing off. With --trace 1 it carries the per-layer
// metrics from spans recorded around calls into each layer, plus the
// tracing overhead. The line before it stamps the machine, seed and
// per-phase request counts. A failed output check prints "correct":
// false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct{ name, unit string }

// endToEnd lists the end-to-end metrics, in BENCHMARK.json order. Every
// workload reports every one of them; WORKLOADS.md says what each means
// on each workload.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"req_per_s", "1/s"},
	{"ttft_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"sim_goodput_tok_s", "tok/sim_s"},
	{"sim_ttft_p99_s", "sim_s"},
	{"sim_speedup_vs_flexgen", "x"},
	{"swa_ppl_regression_pct", "%"},
}

// experimentIDs are the paper runners, in experiments.All order; each
// gets one per-layer metric.
var experimentIDs = []string{
	"table1", "fig1", "fig2c", "fig3", "fig4", "fig5", "fig8", "fig9",
	"fig10", "fig11", "fig12a", "fig12b", "fig12c", "ablation-scoring",
	"numeric", "extension-int4", "ablation-caching", "ablation-eviction",
}

// perLayer lists the per-layer metrics, in BENCHMARK.json order. A
// workload that does not run a layer reports 0 for that layer's metrics;
// the direct-call probes (kernels, sched, costmodel, metrics) run on
// every workload. ttft_p99_ms leads the list: it is an end-to-end
// latency, but the gateway's reading of it does not repeat within the
// largest regression bound on a shared machine, so it is reported here
// without one.
var perLayer = func() []metricDecl {
	out := []metricDecl{{"ttft_p99_ms", "ms"}}
	for _, id := range experimentIDs {
		out = append(out, metricDecl{"experiments." + id + "_s", "s"})
	}
	return append(out, []metricDecl{
		{"oracle.step_ns", "ns"},
		{"oracle.allocs_per_step", "count"},
		{"attention.swa_select_ns", "ns"},
		{"tensor.argtopk_ns", "ns"},
		{"model.decode_step_ns", "ns"},
		{"session.push_p50_ns", "ns"},
		{"session.push_p99_ns", "ns"},
		{"session.advance_p50_ns", "ns"},
		{"session.advance_p99_ns", "ns"},
		{"session.advance_s", "s"},
		{"serve.steps_per_req", "count"},
		{"serve.preemptions", "count"},
		{"serve.batch_mean", "count"},
		{"serve.queue_wait_p99_s", "s"},
		{"sched.step_ns", "ns"},
		{"sched.optimize_ns", "ns"},
		{"costmodel.ragged_decode_ns", "ns"},
		{"costmodel.attention_ns", "ns"},
		{"metrics.sketch_observe_ns", "ns"},
		{"workload.gen_s", "s"},
		{"cluster.push_p50_ns", "ns"},
		{"cluster.push_p99_ns", "ns"},
		{"cluster.advance_p50_ns", "ns"},
		{"cluster.advance_p99_ns", "ns"},
		{"cluster.advances", "count"},
		{"cluster.load_imbalance", "ratio"},
		{"prefix.hit_rate", "ratio"},
		{"prefix.cached_share", "ratio"},
		{"prefix.prefill_tokens", "count"},
		{"prefix.probe_ns", "ns"},
		{"prefix.insert_ns", "ns"},
		{"prefix.evicted_blocks", "count"},
		{"gateway.headers_ms", "ms"},
		{"gateway.first_token_ms", "ms"},
		{"gateway.stream_ms", "ms"},
		{"gateway.events_per_read", "ratio"},
		{"gateway.bytes_per_req", "bytes"},
		{"gateway.dropped_events", "count"},
		{"gateway.send_late_p99_ms", "ms"},
		{"proc.user_cpu_us_per_req", "us"},
		{"proc.sys_cpu_us_per_req", "us"},
		{"runtime.allocs_per_req", "count"},
		{"runtime.gc_cycles", "count"},
		{"trace.pass_self_s", "s"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// gatewayRate is the gateway open-loop phase's offered load in
	// req/s, fixed in BENCHMARK.json's command so it is never
	// re-derived from a run.
	gatewayRate float64
	// smoke shrinks every workload to a few requests, for the tests.
	smoke bool
}

// report is what a workload hands back: request accounting, failed
// output checks, and metrics by name.
type report struct {
	attempted, failed int
	// checks holds one line per failed output check; empty means correct.
	checks  []string
	e2e     map[string]float64
	layers  map[string]float64
	details map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, details: map[string]any{}}
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*report, error){
	"paper":   runPaper,
	"replay":  runReplay,
	"fleet":   runFleet,
	"gateway": runGateway,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper, replay, fleet or gateway")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Float64Var(&cfg.gatewayRate, "gateway-rate", 2500, "gateway open-loop offered load, req/s")
	flag.Parse()
	cfg.trace = *traceFlag == 1

	run, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fatal(fmt.Errorf("unknown --workload %q (want paper, replay, fleet or gateway)", cfg.workload))
	case *traceFlag != 0 && *traceFlag != 1:
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag))
	case !(cfg.seconds > 0) || math.IsInf(cfg.seconds, 0):
		fatal(fmt.Errorf("--seconds must be positive, got %v", cfg.seconds))
	case !(cfg.gatewayRate > 0) || math.IsInf(cfg.gatewayRate, 0):
		fatal(fmt.Errorf("--gateway-rate must be positive, got %v", cfg.gatewayRate))
	}

	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	line, err := resultLine(cfg, rep)
	if err != nil {
		fatal(err)
	}
	stamp := map[string]any{
		"machine":  machineStamp(),
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"checks":   rep.checks,
		"details":  rep.details,
	}
	if cfg.workload == "gateway" {
		stamp["gateway_rate"] = cfg.gatewayRate
	}
	stampJSON, err := json.Marshal(stamp)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(stampJSON))
	fmt.Println(string(line))
	for _, c := range rep.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	if len(rep.checks) > 0 {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final stdout line. Every declared metric of the
// mode must be present and finite; an end-to-end metric must also be
// non-zero, since a zero there means the workload never measured it. A
// run whose output checks failed may stop short of some metrics; its
// line carries the ones it measured.
func resultLine(cfg config, rep *report) ([]byte, error) {
	decls, values := endToEnd, rep.e2e
	if cfg.trace {
		decls, values = perLayer, rep.layers
	}
	correct := len(rep.checks) == 0
	declared := map[string]bool{}
	metrics := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		declared[d.name] = true
		v, ok := values[d.name]
		if !correct && !ok {
			continue
		}
		if !cfg.trace && (!ok || v == 0) {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", cfg.workload, d.name, v)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var stray []string
	for name := range values {
		if !declared[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("%s: undeclared metrics %v", cfg.workload, stray)
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
