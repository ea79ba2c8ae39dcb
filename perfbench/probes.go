package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/attention"
	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/metrics/sketch"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Direct-call probes time one layer function at a time, outside any
// workload, at the sizes the workloads run it at. They run on every
// traced run: their numbers do not depend on the workload, and a change
// to one of these functions should move exactly the workloads that call
// it.

// probeBudget is the wall time each probe measures for.
const probeBudget = 150 * time.Millisecond

// timePerOp calls op in batches of batch calls (reset runs untimed
// between batches) until budget elapses, and returns the median
// nanoseconds per call over the batches.
func timePerOp(budget time.Duration, batch int, reset func(), op func()) float64 {
	var perOp []float64
	start := time.Now()
	for len(perOp) < 5 || time.Since(start) < budget {
		if reset != nil {
			reset()
		}
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return median(perOp)
}

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink struct {
	ints   []int
	floats float64
	any    any
}

// runProbes fills every direct-call per-layer metric into layers.
func runProbes(layers map[string]float64) {
	probeKernels(layers)
	probeSched(layers)
	probeCostModel(layers)
	probeSketch(layers)
}

// fig8Steps and fig8Layers are the Fig. 8 accuracy sweep's sizes
// (experiments.DefaultFig8Config): the kernels are timed where the
// paper workload spends its time.
const (
	fig8Steps  = 256
	fig8Layers = 4
)

func probeKernels(layers map[string]float64) {
	spec := oracle.SpecForModel(model.MustByName("opt-6.7b"), 1)
	spec.Layers = fig8Layers
	proc := oracle.New(spec)
	layers["oracle.step_ns"] = timePerOp(probeBudget, fig8Steps,
		func() { proc = oracle.New(spec) },
		func() { sink.any = proc.Next() })
	proc = oracle.New(spec)
	before := readAllocs()
	for i := 0; i < fig8Steps; i++ {
		sink.any = proc.Next()
	}
	mallocs, _ := readAllocs().since(before)
	layers["oracle.allocs_per_step"] = mallocs / fig8Steps

	// SWA selection at the end of a Fig. 8 sequence, caching ratio 0.2
	// (KV sparsity 0.8), over a warmed observation history.
	pol := attention.NewSWA(0.2, 1)
	rng := rand.New(rand.NewSource(1))
	for step := 1; step < fig8Steps; step++ {
		sel := pol.Select(0, step)
		w := make([]float64, len(sel)+1)
		for i := range w {
			w[i] = rng.Float64()
		}
		pol.Observe(0, append(append([]int(nil), sel...), step), w)
	}
	layers["attention.swa_select_ns"] = timePerOp(probeBudget, 256, nil,
		func() { sink.ints = pol.Select(0, fig8Steps) })

	scores := make([]float32, fig8Steps)
	for i := range scores {
		scores[i] = float32(rng.NormFloat64())
	}
	k := fig8Steps / 5
	layers["tensor.argtopk_ns"] = timePerOp(probeBudget, 256, nil,
		func() { sink.ints = tensor.ArgTopK(scores, k) })

	// The numeric experiment's live decoder: one dense decode step.
	dec := model.NewDecoder(model.SmallConfig(), 1)
	st := dec.NewState()
	tok := 0
	layers["model.decode_step_ns"] = timePerOp(probeBudget, 64,
		func() {
			if st.Len+64 >= dec.Cfg.MaxSeq {
				st = dec.NewState()
			}
		},
		func() {
			sink.any = dec.DecodeStep(st, tok%dec.Cfg.Vocab, nil)
			tok++
		})
}

// replaySchedContext builds a sched.Context as BenchmarkOptimizer does,
// for one sequence the way the serving loop places each request
// (Batch 1), at the replay workload's engine settings and its long-doc
// shape.
func replaySchedContext() *sched.Context {
	prof := memsim.V100_16G()
	mc := model.MustByName("opt-6.7b")
	sys := memsim.NewSystem(prof)
	_ = sys.AllocGPU(mc.WeightBytes(2))
	return &sched.Context{
		Sys: sys, Cost: costmodel.New(prof), Model: mc,
		Batch: 1, Input: 1024, Output: 256,
		CachingRatio: 1 - replaySparsity, KVBits: replayKVBits,
		Breakdown: trace.NewBreakdown(),
	}
}

func probeSched(layers map[string]float64) {
	ctx := replaySchedContext()
	layers["sched.optimize_ns"] = timePerOp(probeBudget, 16, nil,
		func() { sink.any = sched.Optimize(ctx) })

	var a sched.Scheduler
	j := 0
	layers["sched.step_ns"] = timePerOp(probeBudget, ctx.Output,
		func() {
			ctx = replaySchedContext()
			a = sched.MustByName("alisa")
			if err := a.Init(ctx); err != nil {
				panic(err)
			}
			j = 0
		},
		func() {
			plan, err := a.Step(ctx, j)
			if err != nil {
				panic(err)
			}
			sink.any = plan
			j++
		})
}

func probeCostModel(layers map[string]float64) {
	mc := model.MustByName("opt-6.7b")
	cost := costmodel.New(memsim.V100_16G())
	// A full decode batch at the replay engine's cap, ragged lengths.
	attended := make([]int, replayMaxBatch)
	for i := range attended {
		attended[i] = 64 + 37*i
	}
	layers["costmodel.ragged_decode_ns"] = timePerOp(probeBudget, 256, nil, func() {
		mha, ffn := cost.RaggedDecodeTime(mc, attended, 1, true)
		sink.floats = mha + ffn
	})
	ac := costmodel.AttnConfig{
		Batch: replayMaxBatch, Hidden: mc.Hidden, Heads: mc.Heads,
		Attended: 256, BytesKV: 1, LocalWindow: 128,
	}
	layers["costmodel.attention_ns"] = timePerOp(probeBudget, 256, nil, func() {
		sink.floats = cost.Attention(ac).Total()
	})
}

func probeSketch(layers map[string]float64) {
	sk := sketch.NewSketch(0)
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.ExpFloat64()
	}
	i := 0
	layers["metrics.sketch_observe_ns"] = timePerOp(probeBudget, 1024, nil, func() {
		sk.Observe(vals[i%len(vals)])
		i++
	})
	runtime.KeepAlive(sk)
}
