package sched

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/trace"
)

// optimizeReference is Optimize as it stood before the decode-cost table
// and the all-on-GPU skip in predictCost: every step's compute charge
// re-derived through Cost.DecodeLayerTime, every fetch/recompute term
// added unconditionally. Optimize must reproduce its Params bit for bit.
func optimizeReference(ctx *Context) Params {
	tokenBytes := ctx.TokenBytes()
	budget := int(ctx.Sys.GPUHeadroom() / tokenBytes)
	maxSeq := ctx.MaxSeq()
	p1 := budget - ctx.Input
	if p1 < 0 {
		p1 = 0
	}
	if p1 > ctx.Output {
		p1 = ctx.Output
	}
	alpha := 0.0
	if maxSeq > budget && maxSeq > 0 {
		alpha = 1 - float64(budget)/float64(maxSeq)
	}
	best := Params{Alpha: alpha, Beta: 0, P1: p1, P2: ctx.Output,
		PredictedSeconds: predictCostReference(ctx, budget, ctx.Output, 0)}
	if p1 >= ctx.Output {
		return best
	}
	for _, beta := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		for frac := 0.125; frac <= 1.0; frac += 0.125 {
			p2 := p1 + int(frac*float64(ctx.Output-p1))
			cost := predictCostReference(ctx, budget, p2, beta)
			if cost < best.PredictedSeconds {
				best = Params{Alpha: alpha, Beta: beta, P1: p1, P2: p2, PredictedSeconds: cost}
			}
		}
	}
	return best
}

func predictCostReference(ctx *Context, budget, p2 int, beta float64) float64 {
	var total float64
	gpu := minInt(ctx.Input, budget)
	cpu := ctx.Input - gpu
	del := 0
	tokenBytes := float64(ctx.TokenBytes())
	pcie := ctx.Sys.Prof.PCIeBandwidth
	layers := float64(ctx.Model.Layers)
	for j := 0; j < ctx.Output; j++ {
		n := ctx.Input + j
		attended := attendedTokens(ctx, n)
		local := (attended - 1) / 2
		if ctx.CachingRatio >= 1 {
			local = n
		}
		global := attended - 1 - local
		prefix := n - local

		m, f := ctx.Cost.DecodeLayerTime(ctx.Model, ctx.Batch, attended, ctx.kvComputeWidth(), ctx.CachingRatio < 1)
		total += m*layers + f*layers

		if global > 0 && prefix > 0 {
			_, cpuW, delW := layoutFractions(prefix, del, cpu)
			fetched := math.Round(float64(global) * cpuW)
			recomp := math.Round(float64(global) * delW)
			total += fetched * tokenBytes / pcie
			total += ctx.Cost.RecomputeTime(ctx.Model, ctx.Batch, int(recomp))
		}
		if ctx.KVBits < 16 {
			total += ctx.Cost.Quantize(int64(1) * ctx.TokenBytesFP16()).Seconds
		}
		gpu++
		if gpu > budget {
			gpu--
			cpu++
			total += tokenBytes / pcie
		}
		if j >= p2 && beta > 0 {
			for cpu > 0 && float64(del) < beta*float64(del+cpu) {
				cpu--
				del++
			}
		}
	}
	return total
}

// TestOptimizeMatchesReference drives seeded random contexts on every
// registered profile through Optimize and the pre-table reference and
// requires identical Params, PredictedSeconds included. The contexts
// span registered models, batch 1 with a shared decode table (as the
// serving loop admits) and larger batches without one, KV bits 4/8/16,
// dense and sparse caching ratios, and GPU headroom from empty to
// nearly full, so both the all-on-GPU early return and the β/P2 grid
// run with and without the table.
func TestOptimizeMatchesReference(t *testing.T) {
	type key struct {
		prof, model string
		kvw         int
	}
	type coverage struct{ fits, grid int }
	var cov [2]coverage // [with table]
	tables := map[key]*costmodel.DecodeTable{}
	models := model.Registered()
	for _, pname := range memsim.ProfileNames() {
		prof, err := memsim.ProfileByName(pname)
		if err != nil {
			t.Fatal(err)
		}
		cost := costmodel.New(prof)
		rng := rand.New(rand.NewSource(int64(len(pname)) * 1009))
		for trial := 0; trial < 150; trial++ {
			mc := model.MustByName(models[rng.Intn(len(models))])
			ctx := &Context{
				Sys:       memsim.NewSystem(prof),
				Cost:      cost,
				Model:     mc,
				Batch:     1,
				Output:    8 + rng.Intn(185),
				KVBits:    []int{4, 8, 16}[rng.Intn(3)],
				Breakdown: trace.NewBreakdown(),
			}
			ctx.Input = 1 + rng.Intn(mc.MaxSeq-ctx.Output)
			ctx.CachingRatio = 1
			if rng.Intn(3) > 0 {
				ctx.CachingRatio = 0.1 * float64(1+rng.Intn(9))
			}
			useTable := rng.Intn(2) == 0
			if useTable {
				k := key{pname, mc.Name, ctx.kvComputeWidth()}
				if tables[k] == nil {
					tables[k] = costmodel.NewDecodeTable(&cost, mc, ctx.kvComputeWidth())
				}
				ctx.Decode = tables[k]
			} else {
				ctx.Batch = []int{1, 2, 4, 8, 16}[rng.Intn(5)]
			}
			if ctx.Sys.AllocGPU(ctx.WeightBytes()) != nil || ctx.Sys.AllocGPU(ctx.ActivationBytes()) != nil {
				continue // model does not fit this card
			}
			// Other sequences' KV: take a random share of the headroom,
			// nearly all of it half the time so batch-1 contexts spill too.
			share := rng.Float64()
			if rng.Intn(2) == 0 {
				share = 1 - share*0.02
			}
			if h := ctx.Sys.GPUHeadroom(); h > 0 {
				_ = ctx.Sys.AllocGPU(int64(share * float64(h)))
			}

			got, want := Optimize(ctx), optimizeReference(ctx)
			if got != want {
				t.Fatalf("%s %s batch=%d in=%d out=%d r=%v bits=%d table=%v:\n got  %+v\n want %+v",
					pname, mc.Name, ctx.Batch, ctx.Input, ctx.Output, ctx.CachingRatio, ctx.KVBits, useTable, got, want)
			}
			c := &cov[b2i(useTable)]
			if got.P1 >= ctx.Output {
				c.fits++
			} else {
				c.grid++
			}
		}
	}
	for i, c := range cov {
		if c.fits == 0 || c.grid == 0 {
			t.Errorf("table=%v: coverage too thin: %d all-on-GPU, %d grid contexts", i == 1, c.fits, c.grid)
		}
	}
	t.Logf("direct: %+v, table: %+v", cov[0], cov[1])
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BenchmarkOptimizeAdmission is ALISA's admission-time optimizer on a
// replay-shaped context: one sequence (Batch 1) of the replay workload's
// long-doc shape on opt-6.7b/V100-16GB at KV sparsity 0.8 and INT8,
// which fits on the GPU, so only the β=0 candidate is costed. "table"
// reads a warm decode-cost table as the serving loop does; "direct"
// derives every charge through the roofline model.
func BenchmarkOptimizeAdmission(b *testing.B) {
	prof := memsim.V100_16G()
	mc := model.MustByName("opt-6.7b")
	cost := costmodel.New(prof)
	for _, mode := range []string{"table", "direct"} {
		b.Run(mode, func(b *testing.B) {
			sys := memsim.NewSystem(prof)
			_ = sys.AllocGPU(mc.WeightBytes(2))
			ctx := &Context{
				Sys: sys, Cost: cost, Model: mc,
				Batch: 1, Input: 1024, Output: 256,
				CachingRatio: 0.2, KVBits: 8,
				Breakdown: trace.NewBreakdown(),
			}
			if mode == "table" {
				ctx.Decode = costmodel.NewDecodeTable(&cost, mc, ctx.kvComputeWidth())
			}
			if p := Optimize(ctx); p.P1 < ctx.Output {
				b.Fatalf("replay-shaped context does not fit on the GPU: %+v", p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Optimize(ctx)
			}
		})
	}
}
