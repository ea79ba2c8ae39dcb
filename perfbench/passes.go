package main

import (
	"runtime"
	"time"
)

// repeat runs pass until budget has elapsed and at least minPasses
// passes have run, or until an output check has failed.
func repeat(budget time.Duration, minPasses int, rep *report, pass func(i int) error) error {
	start := time.Now()
	for i := 0; (i < minPasses || time.Since(start) < budget) && len(rep.checks) == 0; i++ {
		if err := pass(i); err != nil {
			return err
		}
	}
	return nil
}

// timeSetup runs setup at least n times and for at least minTime, and
// returns the median wall time in seconds. Each call builds the
// workload's state anew; the caller keeps the last one. Before
// each call, untimed, reset (when non-nil) releases the previous call's
// state and the garbage of earlier calls is collected, so one call's
// cost does not depend on the ones before it.
func timeSetup(n int, minTime time.Duration, reset func() error, setup func() error) (float64, error) {
	var times []float64
	var total time.Duration
	for len(times) < n || total < minTime {
		if reset != nil {
			if err := reset(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// setupRepeats returns how many times, and for how long at least, each
// workload sets up per run; setup_s is the median. Set-ups of a few
// milliseconds repeat until their median is steady.
func setupRepeats(cfg config) (int, time.Duration) {
	if cfg.smoke {
		return 1, 0
	}
	return 11, 300 * time.Millisecond
}

// passTimes collects per-pass wall times, heap peaks and allocation
// counts for the untraced and traced passes of one run.
type passTimes struct {
	plain, traced []float64
	heapPeaks     []float64
	mallocs, gcs  []float64
	// passSelf is each traced pass span's self time: the time the
	// benchmark's own loop spends outside the calls it times.
	passSelf        []float64
	requestsPerPass int
	heap            *heapSampler
}

// startPasses begins the measured part of a run: it collects the
// set-up's garbage, so heap peaks belong to the passes, and starts
// sampling the heap. The caller must call stop.
func startPasses(requestsPerPass int) *passTimes {
	runtime.GC()
	return &passTimes{requestsPerPass: requestsPerPass, heap: startHeapSampler(2 * time.Millisecond)}
}

func (p *passTimes) stop() { p.heap.stop() }

// record books one pass: its wall seconds, and, for an untraced pass,
// its peak live heap, allocations and GC cycles.
func (p *passTimes) record(traced bool, wall float64, before allocCounter) {
	peak := p.heap.takePeak()
	if traced {
		p.traced = append(p.traced, wall)
		return
	}
	p.plain = append(p.plain, wall)
	p.heapPeaks = append(p.heapPeaks, peak)
	m, g := readAllocs().since(before)
	p.mallocs = append(p.mallocs, m)
	p.gcs = append(p.gcs, g)
}

// fill writes the metrics every workload derives from its passes.
func (p *passTimes) fill(rep *report) {
	wall := median(p.plain)
	rep.e2e["wall_s"] = wall
	rep.e2e["req_per_s"] = float64(p.requestsPerPass) / wall
	rep.e2e["peak_heap_mb"] = median(p.heapPeaks)
	rep.layers["runtime.allocs_per_req"] = median(p.mallocs) / float64(p.requestsPerPass)
	rep.layers["runtime.gc_cycles"] = median(p.gcs)
	if len(p.traced) > 0 {
		rep.layers["trace.overhead_pct"] = (median(p.traced)/wall - 1) * 100
		rep.layers["trace.pass_self_s"] = median(p.passSelf)
	}
	rep.details["passes"] = map[string]any{"untraced": len(p.plain), "traced": len(p.traced), "requests_per_pass": p.requestsPerPass}
}

// tracedPass says whether pass i of a run records spans: in a traced
// run, odd passes do and even passes do not, so one run measures the
// tracing overhead against itself.
func tracedPass(cfg config, i int) bool { return cfg.trace && i%2 == 1 }

// passLatency collects one latency distribution per pass and reports
// the median over passes of each pass's p50 and p99, so one disturbed
// pass cannot set a run's tail.
type passLatency struct {
	p50, p99 []float64
	samples  []int
}

func (p *passLatency) add(ms []float64) {
	s := summarize(ms)
	p.p50 = append(p.p50, s.P50)
	p.p99 = append(p.p99, s.P99)
	p.samples = append(p.samples, s.N)
}

// fill reports ttft_p50_ms and ttft_p99_ms, with the per-pass sample
// counts and the highest percentile the smallest of them supports.
func (p *passLatency) fill(rep *report) {
	rep.e2e["ttft_p50_ms"], rep.layers["ttft_p99_ms"] = median(p.p50), median(p.p99)
	fewest := 0
	for i, n := range p.samples {
		if i == 0 || n < fewest {
			fewest = n
		}
	}
	rep.details["ttft_ms"] = map[string]any{
		"p50_per_pass": p.p50, "p99_per_pass": p.p99, "samples_per_pass": p.samples,
		"supported_tail_pct": supportedTail(fewest),
	}
}
