package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	alisa "repro"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/trace"
)

// The paper's headline cells: Fig. 9's throughput claim (opt-6.7b,
// batch 64, ALISA over FlexGen) and Fig. 8's output-quality claim
// (opt-6.7b, wikitext-2, SWA at 0.8 KV sparsity against dense).
const (
	headlineModel    = "opt-6.7b"
	headlineBatch    = 64
	headlineDataset  = "wikitext-2"
	headlineSparsity = 0.8
)

// headline holds the paper's two headline numbers.
type headline struct {
	speedup, pplRegressionPct float64
}

func headlineFrom(f9 *experiments.Fig9Result, f8 *experiments.Fig8Result) (headline, error) {
	var h headline
	h.speedup = f9.Speedup(headlineModel, headlineBatch, "flexgen")
	if h.speedup == 0 {
		return h, fmt.Errorf("fig9: no %s batch-%d alisa/flexgen cells", headlineModel, headlineBatch)
	}
	swa, okS := f8.Cell(headlineModel, headlineDataset, "swa", headlineSparsity)
	dense, okD := f8.Cell(headlineModel, headlineDataset, "dense", headlineSparsity)
	if !okS || !okD || dense.Metric == 0 {
		return h, fmt.Errorf("fig8: no %s/%s swa and dense cells at %.1f", headlineModel, headlineDataset, headlineSparsity)
	}
	h.pplRegressionPct = (swa.Metric/dense.Metric - 1) * 100
	return h, nil
}

// headlineCells runs Fig. 9 and Fig. 8 at just their headline cells.
func headlineCells() (*experiments.Fig9Result, *experiments.Fig8Result, error) {
	f9cfg := experiments.DefaultFig9Config()
	f9cfg.Models, f9cfg.Batches, f9cfg.Systems = []string{headlineModel}, []int{headlineBatch}, []string{"alisa", "flexgen"}
	f9, err := experiments.Fig9(f9cfg)
	if err != nil {
		return nil, nil, err
	}
	f8cfg := experiments.DefaultFig8Config()
	f8cfg.Models, f8cfg.Datasets, f8cfg.Sparsities = []string{headlineModel}, []string{headlineDataset}, []float64{headlineSparsity}
	f8, err := experiments.Fig8(f8cfg)
	return f9, f8, err
}

// headlinePins recomputes the paper's two headline numbers at just their
// cells, so every workload reports them; they must not move unless a
// change means to move them.
func headlinePins(rep *report) error {
	f9, f8, err := headlineCells()
	if err != nil {
		return err
	}
	return reportHeadline(rep, f9, f8)
}

func reportHeadline(rep *report, f9 *experiments.Fig9Result, f8 *experiments.Fig8Result) error {
	h, err := headlineFrom(f9, f8)
	if err != nil {
		return err
	}
	rep.e2e["sim_speedup_vs_flexgen"] = h.speedup
	rep.e2e["swa_ppl_regression_pct"] = h.pplRegressionPct
	return nil
}

// decoderPrompts is how many live-decoder requests each untraced paper
// pass serves: enough to leave ten samples beyond each pass's 99th
// percentile.
func decoderPrompts(cfg config) int {
	if cfg.smoke {
		return 4
	}
	return 1000
}

func runPaper(cfg config) (*report, error) {
	rep := newReport()

	// Set-up builds what the pass and the live decoder run on: the runner
	// list, the engine for the headline configuration, and the decoder's
	// weights.
	var runners []experiments.Runner
	var eng *alisa.Engine
	var dec *model.Decoder
	repeats, minTime := setupRepeats(cfg)
	setup, err := timeSetup(repeats, minTime, nil, func() error {
		runners = experiments.All()
		var err error
		eng, err = alisa.New(headlineModel, alisa.WithScheduler("alisa"),
			alisa.WithKVSparsity(headlineSparsity), alisa.WithKVBits(8))
		dec = model.NewDecoder(model.SmallConfig(), cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	if cfg.smoke {
		runners = runners[:1]
	}
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.ID
	}
	if !cfg.smoke {
		rep.check(fmt.Sprint(ids) == fmt.Sprint(experimentIDs), "paper: runners %v, want %v", ids, experimentIDs)
	}

	passes := startPasses(len(runners))
	defer passes.stop()
	rendered := make([]string, len(runners))
	runnerTimes := map[string][]float64{}
	var f8 *experiments.Fig8Result
	var f9 *experiments.Fig9Result
	var ttft passLatency
	rng := rand.New(rand.NewSource(cfg.seed))
	err = repeat(time.Duration(cfg.seconds*float64(time.Second)), 3, rep, func(i int) error {
		traced := tracedPass(cfg, i)
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		before := readAllocs()
		start := time.Now()
		root := tr.begin("paper.pass", -1, -1)
		for j, r := range runners {
			rep.attempted++
			sp := tr.begin("experiments."+r.ID, root, -1)
			res, err := r.Run()
			var out string
			if err == nil {
				out = res.Render()
			}
			tr.end(sp)
			if err != nil {
				rep.failed++
				rep.check(false, "paper pass %d: %s: %v", i, r.ID, err)
				continue
			}
			if i == 0 {
				rendered[j] = out
			}
			rep.check(out == rendered[j], "paper pass %d: %s renders differently from pass 0", i, r.ID)
			switch v := res.(type) {
			case *experiments.Fig8Result:
				f8 = v
			case *experiments.Fig9Result:
				f9 = v
			}
		}
		tr.end(root)
		passes.record(traced, time.Since(start).Seconds(), before)
		if traced {
			spans := tr.byName()
			for name, v := range spans {
				runnerTimes[name] = append(runnerTimes[name], v...)
			}
			passes.passSelf = append(passes.passSelf, spans["paper.pass"][0])
			return nil
		}
		ttft.add(decoderTTFT(dec, rng, decoderPrompts(cfg)))
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

	if f9 == nil || f8 == nil {
		// A smoke run skips the figures; take the cells directly.
		if f9, f8, err = headlineCells(); err != nil {
			return nil, err
		}
	}
	if err := reportHeadline(rep, f9, f8); err != nil {
		return nil, err
	}
	if err := simulateHeadline(rep, eng, f9); err != nil {
		return nil, err
	}
	if cfg.trace {
		for _, id := range experimentIDs {
			if v, ok := runnerTimes["experiments."+id]; ok {
				rep.layers["experiments."+id+"_s"] = median(v)
			}
		}
		runProbes(rep.layers)
	}
	return rep, nil
}

// simulateHeadline re-runs Fig. 9's headline ALISA cell through the
// public Engine, checks that it reproduces the figure's throughput bit
// for bit, and reports its simulated throughput and time to first token:
// every sequence of the lockstep batch gets its first token when
// prefill ends, so that is the cell's TTFT at every percentile.
func simulateHeadline(rep *report, eng *alisa.Engine, f9 *experiments.Fig9Result) error {
	res, err := eng.Simulate(context.Background(), alisa.Shape{Batch: headlineBatch, Input: 128, Output: 512})
	if err != nil {
		return err
	}
	cell, _ := f9.Cell(headlineModel, headlineBatch, "alisa")
	rep.check(res.Throughput == cell.Throughput, "paper: Engine.Simulate throughput %v, Fig. 9 cell %v", res.Throughput, cell.Throughput)
	rep.e2e["sim_goodput_tok_s"] = res.Throughput
	rep.e2e["sim_ttft_p99_s"] = res.Breakdown.Get(trace.CatPrefill)
	return nil
}

// decoderTTFT serves n closed-loop requests on the live decoder the
// numeric experiment runs: each request prefills a seeded prompt token
// by token and picks its first output token greedily. It returns each
// request's time from being due to its first token, in ms.
func decoderTTFT(dec *model.Decoder, rng *rand.Rand, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		prompt := 4 + rng.Intn(9)
		due := time.Now()
		st := dec.NewState()
		var logits []float32
		for p := 0; p < prompt; p++ {
			logits = dec.DecodeStep(st, rng.Intn(dec.Cfg.Vocab), nil).Logits
		}
		best := 0
		for v := range logits {
			if logits[v] > logits[best] {
				best = v
			}
		}
		sink.ints = []int{best}
		out = append(out, float64(time.Since(due).Nanoseconds())/1e6)
	}
	return out
}
