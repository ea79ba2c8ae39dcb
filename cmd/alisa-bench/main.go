// Command alisa-bench regenerates the paper's evaluation: every table and
// figure, or a selected subset — and benches the compiled engine itself
// over a (model × scheduler × batch) grid.
//
// Usage:
//
//	alisa-bench -list            # enumerate experiments
//	alisa-bench -run fig9        # one experiment
//	alisa-bench -all             # the full evaluation
//	alisa-bench -all -json       # machine-readable timings on stdout
//	alisa-bench -grid            # engine grid: per-cell wall/sim timing
//	alisa-bench -grid -grid-parallel 0   # grid pairs run concurrently
//
// With -json the rendered reports are suppressed and a single JSON
// document of experiment timings is written to stdout instead. The
// format is documented in EXPERIMENTS.md:
//
//	{
//	  "total_seconds": 3.21,
//	  "experiments": [
//	    {"id": "fig8", "title": "...", "seconds": 2.38, "output_bytes": 123456},
//	    ...
//	  ]
//	}
//
// Performance claims come from perfbench (perfbench/run.sh), the repo's
// one benchmark, not from this command.
//
// With -grid the engine API is exercised directly: one alisa.Engine is
// compiled per (model, scheduler) pair and reused across every batch-size
// cell, and a streaming Observer collects per-cell decode-step counts and
// simulated time alongside the measured wall time — the per-cell timing
// view of the public API's hot path. -grid-parallel runs the pairs
// concurrently (each pair's batch cells stay serial so its observer
// stays single-goroutine); rows print in deterministic grid order.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	alisa "repro"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/textfmt"
)

// timing is one experiment's entry in the -json report.
type timing struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	Seconds     float64 `json:"seconds"`
	OutputBytes int     `json:"output_bytes"`
}

// report is the top-level -json document.
type report struct {
	TotalSeconds float64  `json:"total_seconds"`
	Experiments  []timing `json:"experiments"`
}

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "run one experiment by id (e.g. fig9)")
	all := flag.Bool("all", false, "run every experiment in paper order")
	asJSON := flag.Bool("json", false, "emit machine-readable timings instead of rendered reports")
	gridMode := flag.Bool("grid", false, "bench the compiled engine over a model × scheduler × batch grid")
	gridModels := flag.String("grid-models", "opt-6.7b,opt-13b", "comma-separated models for -grid")
	gridScheds := flag.String("grid-sched", "alisa,flexgen,vllm", "comma-separated schedulers for -grid")
	gridBatches := flag.String("grid-batches", "8,16,32", "comma-separated batch sizes for -grid")
	gridParallel := flag.Int("grid-parallel", 1, "concurrent (model, scheduler) pairs for -grid (0 = GOMAXPROCS)")
	flag.Parse()

	if err := validateParallelism(*gridParallel); err != nil {
		fatal(err)
	}

	var runners []experiments.Runner
	switch {
	case *gridMode:
		if err := runGrid(*gridModels, *gridScheds, *gridBatches, *gridParallel); err != nil {
			fatal(err)
		}
		return
	case *list:
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	case *run != "":
		r, err := experiments.ByID(*run)
		if err != nil {
			fatal(err)
		}
		runners = []experiments.Runner{r}
	case *all:
		runners = experiments.All()
	default:
		flag.Usage()
		os.Exit(2)
	}

	rep := report{}
	start := time.Now()
	for _, r := range runners {
		t, err := execute(r, *asJSON)
		if err != nil {
			fatal(err)
		}
		rep.Experiments = append(rep.Experiments, t)
	}
	rep.TotalSeconds = time.Since(start).Seconds()
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}
}

// cellStats accumulates one grid cell's observer events.
type cellStats struct {
	steps int
}

// gridPair is one (model, scheduler) engine of the -grid bench with its
// rendered rows, buffered so parallel pairs print in deterministic order.
type gridPair struct {
	model, sched string
	rows         [][]string
	err          error
}

// runGrid benches the compiled-engine hot path: each (model, scheduler)
// engine is compiled once, then every batch cell reuses it serially (the
// cell observer is single-goroutine state); with workers > 1 the pairs
// themselves run concurrently through the shared grid executor.
func runGrid(models, scheds, batches string, workers int) error {
	var sizes []int
	for _, b := range strings.Split(batches, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(b), "%d", &v); err != nil || v <= 0 {
			return fmt.Errorf("bad -grid-batches entry %q", b)
		}
		sizes = append(sizes, v)
	}

	var pairs []*gridPair
	for _, modelName := range strings.Split(models, ",") {
		for _, schedName := range strings.Split(scheds, ",") {
			pairs = append(pairs, &gridPair{
				model: strings.TrimSpace(modelName),
				sched: strings.TrimSpace(schedName),
			})
		}
	}

	_ = grid.Run(context.Background(), len(pairs), workers, func(ctx context.Context, i int) {
		p := pairs[i]
		stats := &cellStats{}
		opts := []alisa.Option{
			alisa.WithScheduler(p.sched),
			alisa.WithObserver(alisa.ObserverFuncs{
				Step: func(e alisa.StepEvent) { stats.steps++ },
			}),
		}
		if p.sched == "alisa" {
			opts = append(opts, alisa.WithKVSparsity(0.8), alisa.WithKVBits(8))
		}
		eng, err := alisa.New(p.model, opts...)
		if err != nil {
			p.err = err
			return
		}
		for _, batch := range sizes {
			*stats = cellStats{}
			start := time.Now()
			res, err := eng.Simulate(ctx, alisa.Shape{Batch: batch, Input: 128, Output: 256})
			wall := time.Since(start)
			if err != nil {
				p.rows = append(p.rows, []string{p.model, p.sched, fmt.Sprint(batch),
					wall.Round(time.Microsecond).String(), "—", "—", "error: " + err.Error()})
				continue
			}
			p.rows = append(p.rows, []string{p.model, p.sched, fmt.Sprint(batch),
				wall.Round(time.Microsecond).String(),
				textfmt.Seconds(res.TotalSeconds),
				fmt.Sprint(stats.steps),
				fmt.Sprintf("%.1f", res.Throughput)})
		}
	})

	tb := textfmt.NewTable("model", "scheduler", "batch", "wall", "sim", "steps", "tok/s")
	for _, p := range pairs {
		if p.err != nil {
			return p.err
		}
		for _, row := range p.rows {
			tb.AddRow(row...)
		}
	}
	fmt.Println(tb.String())
	return nil
}

// validateParallelism rejects a negative -grid-parallel (0 means
// GOMAXPROCS); table-tested in main_test.go.
func validateParallelism(gridParallel int) error {
	if gridParallel < 0 {
		return fmt.Errorf("-grid-parallel must be ≥ 0, got %d", gridParallel)
	}
	return nil
}

func execute(r experiments.Runner, quiet bool) (timing, error) {
	start := time.Now()
	res, err := r.Run()
	if err != nil {
		return timing{}, fmt.Errorf("%s: %w", r.ID, err)
	}
	elapsed := time.Since(start)
	out := res.Render()
	if !quiet {
		fmt.Printf("== %s — %s (ran in %s)\n\n", r.ID, r.Title, elapsed.Round(time.Millisecond))
		fmt.Println(out)
	}
	return timing{
		ID:          r.ID,
		Title:       r.Title,
		Seconds:     elapsed.Seconds(),
		OutputBytes: len(out),
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alisa-bench:", err)
	os.Exit(1)
}
