package main

import (
	"context"
	"fmt"
	"time"

	alisa "repro"
)

// The replay workload's engine: the paper's own scheduler at its
// headline setting (opt-6.7b, KV sparsity 0.8, INT8) on the paper's
// V100-16GB pairing, streaming metrics from the first request.
const (
	replayModel    = "opt-6.7b"
	replaySparsity = 0.8
	replayKVBits   = 8
	replayMaxBatch = 16
	// replayRate is the offered load in req/s: below the knee, where
	// preemptions stay rare and the TTFT tail stays put (WORKLOADS.md).
	replayRate = 1.25
)

// replaySize is the number of requests one replay pass pushes.
func replaySize(cfg config) int {
	if cfg.smoke {
		return 40
	}
	return 8000
}

func newReplayEngine() (*alisa.Engine, error) {
	return alisa.New(replayModel,
		alisa.WithScheduler("alisa"),
		alisa.WithKVSparsity(replaySparsity),
		alisa.WithKVBits(replayKVBits),
		alisa.WithMaxBatch(replayMaxBatch),
		alisa.WithExactMetrics(-1))
}

// serveCounter collects the serving core's Observer events for one
// pass: the wall time from each request's push to its first first-token
// event, every completion's simulated TTFT, and, when traced, steps,
// batch occupancy, preemptions and admission queue waits. The replay
// and fleet workloads share it.
type serveCounter struct {
	traced      bool
	due         []time.Time
	seen        []bool
	ttftWall    []float64
	steps       int
	batchSum    int
	preemptions int
	waits       []float64
	ttftSim     []float64
}

func (c *serveCounter) reset(n int, traced bool) {
	if cap(c.due) < n {
		c.due, c.seen = make([]time.Time, n), make([]bool, n)
	}
	c.due, c.seen = c.due[:n], c.seen[:n]
	clear(c.seen)
	c.traced = traced
	c.ttftWall = c.ttftWall[:0]
	c.steps, c.batchSum, c.preemptions = 0, 0, 0
	c.waits = c.waits[:0]
	c.ttftSim = c.ttftSim[:0]
}

// serveLayers gathers the serve layer's per-layer metrics over a run's
// traced passes.
type serveLayers struct{ stepsPerReq, preemptions, waitP99, batchMean []float64 }

// add books one traced pass of n requests from the counter.
func (s *serveLayers) add(c *serveCounter, n int) {
	s.stepsPerReq = append(s.stepsPerReq, float64(c.steps)/float64(n))
	s.preemptions = append(s.preemptions, float64(c.preemptions))
	s.waitP99 = append(s.waitP99, summarize(c.waits).P99)
	if c.steps > 0 {
		s.batchMean = append(s.batchMean, float64(c.batchSum)/float64(c.steps))
	}
}

func (s *serveLayers) fill(rep *report) {
	rep.layers["serve.steps_per_req"] = median(s.stepsPerReq)
	rep.layers["serve.preemptions"] = median(s.preemptions)
	rep.layers["serve.queue_wait_p99_s"] = median(s.waitP99)
	rep.layers["serve.batch_mean"] = median(s.batchMean)
}

func (c *serveCounter) observer() alisa.Observer {
	return alisa.ObserverFuncs{
		FirstToken: func(e alisa.FirstTokenEvent) {
			if !c.seen[e.Request] {
				c.seen[e.Request] = true
				c.ttftWall = append(c.ttftWall, time.Since(c.due[e.Request]).Seconds()*1e3)
			}
		},
		Step: func(e alisa.StepEvent) {
			if c.traced {
				c.steps++
				c.batchSum += e.Batch
			}
		},
		Preemption: func(alisa.PreemptionEvent) {
			if c.traced {
				c.preemptions++
			}
		},
		Admission: func(e alisa.AdmissionEvent) {
			if c.traced {
				c.waits = append(c.waits, e.Wait)
			}
		},
		Completion: func(e alisa.CompletionEvent) { c.ttftSim = append(c.ttftSim, e.TTFT) },
	}
}

// simFingerprint renders a serving result's simulated metrics at full
// precision; every pass of one invocation must reproduce it exactly.
func simFingerprint(r *alisa.ServeResult) string {
	return fmt.Sprintf("completed=%d makespan=%b tput=%b goodput=%b slo=%b ttft=%v tpot=%v e2e=%v pre=%d batch=%b prefill=%d hits=%d/%d cached=%d",
		r.Completed, r.Makespan, r.Throughput, r.Goodput, r.SLOAttainment,
		r.TTFT, r.TPOT, r.E2E, r.Preemptions, r.MeanBatch, r.PrefillTokens,
		r.PrefixHits, r.PrefixMisses, r.PrefixCachedTokens)
}

func runReplay(cfg config) (*report, error) {
	rep := newReport()
	n := replaySize(cfg)

	counter := &serveCounter{}
	var eng *alisa.Engine
	var trace alisa.TraceWorkload
	var genTimes []float64
	repeats, minTime := setupRepeats(cfg)
	setup, err := timeSetup(repeats, minTime, nil, func() error {
		var err error
		if eng, err = newReplayEngine(); err != nil {
			return err
		}
		t0 := time.Now()
		trace, err = alisa.NewPoissonTrace(n, replayRate, cfg.seed)
		genTimes = append(genTimes, time.Since(t0).Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.layers["workload.gen_s"] = median(genTimes)

	passes := startPasses(n)
	defer passes.stop()
	var fingerprint string
	var ttft passLatency
	var pushNs, advNs, advBusy []float64
	var serveL serveLayers
	var simTTFT float64
	last := &alisa.ServeResult{}
	err = repeat(time.Duration(cfg.seconds*float64(time.Second)), 3, rep, func(i int) error {
		traced := tracedPass(cfg, i)
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		counter.reset(n, traced)
		before := readAllocs()
		start := time.Now()
		root := tr.begin("replay.pass", -1, -1)
		res, err := replayPass(eng, trace, counter, tr, root)
		tr.end(root)
		wall := time.Since(start).Seconds()
		rep.attempted += n
		if err != nil {
			rep.failed += n
			rep.check(false, "replay pass %d: %v", i, err)
			return nil
		}
		rep.failed += n - res.Completed
		rep.check(res.Completed == n, "replay pass %d: completed %d of %d pushed", i, res.Completed, n)
		fp := simFingerprint(res)
		if fingerprint == "" {
			fingerprint = fp
		}
		rep.check(fp == fingerprint, "replay pass %d: simulated metrics differ from pass 0:\n  %s\n  %s", i, fp, fingerprint)
		passes.record(traced, wall, before)
		p99 := summarize(counter.ttftSim).P99
		rep.check(i == 0 || p99 == simTTFT, "replay pass %d: simulated TTFT p99 %v, pass 0 %v", i, p99, simTTFT)
		simTTFT = p99
		last = res
		if !traced {
			ttft.add(counter.ttftWall)
			return nil
		}
		spans := tr.byName()
		pushNs = append(pushNs, spans["session.push"]...)
		advNs = append(advNs, spans["session.advance"]...)
		advBusy = append(advBusy, sum(spans["session.advance"]))
		passes.passSelf = append(passes.passSelf, spans["replay.pass"][0])
		serveL.add(counter, n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(rep.checks) > 0 {
		return rep, nil
	}
	passes.fill(rep)
	ttft.fill(rep)
	rep.e2e["sim_goodput_tok_s"] = last.Goodput
	rep.e2e["sim_ttft_p99_s"] = simTTFT
	rep.details["preemptions"] = last.Preemptions
	if cfg.trace {
		push, adv := summarize(scaled(pushNs, 1e9)), summarize(scaled(advNs, 1e9))
		rep.layers["session.push_p50_ns"], rep.layers["session.push_p99_ns"] = push.P50, push.P99
		rep.layers["session.advance_p50_ns"], rep.layers["session.advance_p99_ns"] = adv.P50, adv.P99
		rep.layers["session.advance_s"] = median(advBusy)
		serveL.fill(rep)
		rep.details["session_push_ns"], rep.details["session_advance_ns"] = push, adv
		runProbes(rep.layers)
	}
	if err := headlinePins(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// replayPass streams the trace through a fresh Session the way live
// traffic would arrive: a request is pushed once the simulated clock
// reaches its arrival (or the session idles), so the backlog is bounded
// by the system, not by the trace length. Its push is its due time.
func replayPass(eng *alisa.Engine, trace alisa.TraceWorkload, counter *serveCounter, tr *tracer, root int) (*alisa.ServeResult, error) {
	s, err := eng.Open(context.Background())
	if err != nil {
		return nil, err
	}
	if err := s.Subscribe(counter.observer()); err != nil {
		return nil, err
	}
	next := 0
	for {
		if next < len(trace) && (trace[next].Arrival <= s.Clock() || s.Pending()+s.InFlight() == 0) {
			counter.due[next] = time.Now()
			sp := tr.begin("session.push", root, next)
			err := s.Push(trace[next])
			tr.end(sp)
			if err != nil {
				break // latched; Close reports it
			}
			next++
			continue
		}
		sp := tr.begin("session.advance", root, -1)
		progressed, err := s.Advance()
		tr.end(sp)
		if err != nil || (!progressed && next >= len(trace)) {
			break
		}
	}
	return s.Close()
}
