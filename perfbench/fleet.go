package main

import (
	"context"
	"crypto/sha256"
	"sort"
	"time"

	alisa "repro"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/serve/prefix"
)

// The fleet workload: prefix-sharing traffic through an 8-replica
// prefix-affinity Cluster of vLLM-scheduled opt-6.7b on V100-32GB, with
// the prefix cache on. sched.Alisa never runs here.
const (
	fleetModel    = "opt-6.7b"
	fleetProfile  = "V100-32GB"
	fleetReplicas = 8
	fleetRouter   = "prefix-affinity"
	fleetBlock    = 16
	// Conversations extend their histories turn by turn, so each request
	// writes new prefix blocks; their combined histories far exceed the
	// per-replica cache budget, so LRU eviction runs. RAG requests
	// re-read a popularity-skewed pool of twelve documents and mostly hit.
	fleetConvRate = 6.0
	fleetRAGRate  = 6.0
	fleetTurns    = 12
)

// fleetSize returns the conversation count and RAG request count of one
// fleet pass.
func fleetSize(cfg config) (conversations, rag int) {
	if cfg.smoke {
		return 4, 16
	}
	return 500, 6000
}

func newFleetEngine(obs alisa.Observer) (*alisa.Engine, error) {
	return alisa.New(fleetModel,
		alisa.WithScheduler("vllm"),
		alisa.WithProfile(fleetProfile),
		alisa.WithPrefixCache(alisa.PrefixCache{BlockTokens: fleetBlock}),
		alisa.WithObserver(obs))
}

// fleetTrace merges a conversation trace and a RAG trace on one arrival
// timeline and numbers the requests in arrival order.
func fleetTrace(cfg config) (alisa.TraceWorkload, error) {
	conv, ragN := fleetSize(cfg)
	maxSeq := model.MustByName(fleetModel).MaxSeq
	c, err := alisa.NewConversationTrace(conv, fleetTurns, fleetConvRate, maxSeq, cfg.seed)
	if err != nil {
		return nil, err
	}
	r, err := alisa.NewRAGTrace(ragN, fleetRAGRate, maxSeq, cfg.seed+1)
	if err != nil {
		return nil, err
	}
	merged := append(append(alisa.TraceWorkload{}, c...), r...)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Arrival < merged[j].Arrival })
	for i := range merged {
		merged[i].ID = i
	}
	return merged, nil
}

func runFleet(cfg config) (*report, error) {
	rep := newReport()

	counter := &serveCounter{}
	var eng *alisa.Engine
	var trace alisa.TraceWorkload
	var genTimes []float64
	repeats, minTime := setupRepeats(cfg)
	setup, err := timeSetup(repeats, minTime, nil, func() error {
		var err error
		if eng, err = newFleetEngine(counter.observer()); err != nil {
			return err
		}
		t0 := time.Now()
		trace, err = fleetTrace(cfg)
		genTimes = append(genTimes, time.Since(t0).Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.layers["workload.gen_s"] = median(genTimes)
	n := len(trace)

	passes := startPasses(n)
	defer passes.stop()
	var fingerprint [sha256.Size]byte
	var ttft passLatency
	var pushNs, advNs, advances []float64
	var simTTFT float64
	var serveL serveLayers
	var last *alisa.ClusterResult
	err = repeat(time.Duration(cfg.seconds*float64(time.Second)), 3, rep, func(i int) error {
		traced := tracedPass(cfg, i)
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		counter.reset(n, traced)
		before := readAllocs()
		start := time.Now()
		root := tr.begin("fleet.pass", -1, -1)
		res, err := fleetPass(eng, trace, counter, tr, root)
		tr.end(root)
		wall := time.Since(start).Seconds()
		rep.attempted += n
		if err != nil {
			rep.failed += n
			rep.check(false, "fleet pass %d: %v", i, err)
			return nil
		}
		rep.failed += n - res.Completed
		rep.check(res.Pushed == n && res.Completed == n, "fleet pass %d: pushed %d, completed %d of %d", i, res.Pushed, res.Completed, n)
		fp := sha256.Sum256([]byte(res.Fingerprint()))
		if i == 0 {
			fingerprint = fp
		}
		rep.check(fp == fingerprint, "fleet pass %d: Fingerprint differs from pass 0", i)
		passes.record(traced, wall, before)
		p99 := summarize(counter.ttftSim).P99
		rep.check(i == 0 || p99 == simTTFT, "fleet pass %d: simulated TTFT p99 %v, pass 0 %v", i, p99, simTTFT)
		simTTFT = p99
		last = res
		if !traced {
			ttft.add(counter.ttftWall)
			return nil
		}
		spans := tr.byName()
		pushNs = append(pushNs, spans["cluster.push"]...)
		advNs = append(advNs, spans["cluster.advance"]...)
		advances = append(advances, float64(len(spans["cluster.advance"])))
		passes.passSelf = append(passes.passSelf, spans["fleet.pass"][0])
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
	rep.details["prefix_hit_rate"] = last.PrefixHitRate()
	if cfg.trace {
		push, adv := summarize(scaled(pushNs, 1e9)), summarize(scaled(advNs, 1e9))
		rep.layers["cluster.push_p50_ns"], rep.layers["cluster.push_p99_ns"] = push.P50, push.P99
		rep.layers["cluster.advance_p50_ns"], rep.layers["cluster.advance_p99_ns"] = adv.P50, adv.P99
		rep.layers["cluster.advances"] = median(advances)
		rep.layers["cluster.load_imbalance"] = loadImbalance(last)
		serveL.fill(rep)
		rep.layers["prefix.hit_rate"] = last.PrefixHitRate()
		rep.layers["prefix.cached_share"] = float64(last.PrefixCachedTokens) / float64(last.PrefixCachedTokens+last.PrefillTokens)
		rep.layers["prefix.prefill_tokens"] = float64(last.PrefillTokens)
		probePrefixIndex(rep.layers, trace)
		rep.details["cluster_push_ns"], rep.details["cluster_advance_ns"] = push, adv
		runProbes(rep.layers)
	}
	if err := headlinePins(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// fleetPass replays the trace through a fresh fleet the way
// alisa.ServeCluster does — a request is routed once the fleet frontier
// reaches its arrival, or the fleet idles — but from outside, so each
// Push and Advance can be timed.
func fleetPass(eng *alisa.Engine, trace alisa.TraceWorkload, counter *serveCounter, tr *tracer, root int) (*alisa.ClusterResult, error) {
	c, err := eng.OpenCluster(context.Background(), alisa.ClusterSpec{Replicas: fleetReplicas, Router: fleetRouter})
	if err != nil {
		return nil, err
	}
	next := 0
	for {
		if next < len(trace) && (trace[next].Arrival <= c.Frontier() || c.Pending()+c.InFlight() == 0) {
			counter.due[next] = time.Now()
			sp := tr.begin("cluster.push", root, next)
			err := c.Push(trace[next])
			tr.end(sp)
			if err != nil {
				break // latched; Close reports it
			}
			next++
			continue
		}
		sp := tr.begin("cluster.advance", root, -1)
		progressed, err := c.Advance()
		tr.end(sp)
		if err != nil || (!progressed && next >= len(trace)) {
			break
		}
	}
	return c.Close()
}

// loadImbalance is the busiest replica's routed count over the mean.
func loadImbalance(r *alisa.ClusterResult) float64 {
	most, total := 0, 0
	for _, rep := range r.Replicas {
		most = max(most, rep.Routed)
		total += rep.Routed
	}
	if total == 0 {
		return 0
	}
	return float64(most) / (float64(total) / float64(len(r.Replicas)))
}

// probePrefixIndex replays the fleet's token streams, in arrival order,
// into one prefix.Index sized like one replica's default cache budget (a
// quarter of the GPU left after the weights), timing each Probe and
// Insert and counting the blocks LRU eviction frees.
func probePrefixIndex(layers map[string]float64, trace alisa.TraceWorkload) {
	mc := model.MustByName(fleetModel)
	prof, err := memsim.ProfileByName(fleetProfile)
	if err != nil {
		panic(err)
	}
	blockBytes := mc.KVBytesPerToken(2) * fleetBlock
	budget := (prof.GPUMemBytes - mc.WeightBytes(2)) / 4
	x := prefix.NewIndex(fleetBlock, blockBytes, budget)
	probe := make([]float64, 0, len(trace))
	insert := make([]float64, 0, len(trace))
	var freed int64
	for _, r := range trace {
		t0 := time.Now()
		sink.ints = r.Tokens[:x.Probe(r.Tokens)]
		t1 := time.Now()
		_, f := x.Insert(r.Tokens, budget, r.Arrival)
		t2 := time.Now()
		probe = append(probe, float64(t1.Sub(t0).Nanoseconds()))
		insert = append(insert, float64(t2.Sub(t1).Nanoseconds()))
		freed += f
	}
	layers["prefix.probe_ns"] = median(probe)
	layers["prefix.insert_ns"] = median(insert)
	layers["prefix.evicted_blocks"] = float64(freed / blockBytes)
}
