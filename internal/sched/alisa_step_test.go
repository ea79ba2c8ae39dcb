package sched

import (
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/trace"
)

// stepState returns an Alisa scheduler mid-run with n cached positions,
// positioned so the next Step runs in the given phase. Phase 1 has room
// for everything on the GPU. Phase 3 is a long generation's steady state:
// an n/8-token prompt decoded on a GPU and a CPU that each hold n/4
// positions, so every step offloads the oldest GPU token, deletes the
// oldest CPU token and rebalances the deletion share, while oldest-first
// eviction keeps the local window GPU-resident. It also returns the index
// of the next decode step.
func stepState(tb testing.TB, n, phase int) (*Alisa, *Context, int) {
	tb.Helper()
	prof := memsim.V100_16G()
	ctx := &Context{Model: model.MustByName("opt-6.7b"), Batch: 1, Input: n, Output: 2 * n,
		CachingRatio: 0.2, KVBits: 16, Breakdown: trace.NewBreakdown()}
	tok := ctx.TokenBytes()
	prof.GPUMemBytes = ctx.WeightBytes() + ctx.ActivationBytes() + int64(4*n)*tok
	prof.CPUMemBytes = int64(4*n) * tok
	if phase == 3 {
		ctx.Input = n / 8
		prof.GPUMemBytes = ctx.WeightBytes() + ctx.ActivationBytes() + int64(n/4)*tok
		prof.CPUMemBytes = int64(n/4) * tok
	}
	ctx.Sys, ctx.Cost = memsim.NewSystem(prof), costmodel.New(prof)
	for _, b := range []int64{ctx.WeightBytes(), ctx.ActivationBytes()} {
		if err := ctx.Sys.AllocGPU(b); err != nil {
			tb.Fatal(err)
		}
	}
	a := NewAlisaManual(0.5, 0, true)
	if err := a.Init(ctx); err != nil {
		tb.Fatal(err)
	}
	j := 0
	for ; a.store.Len() < n; j++ {
		if _, err := a.Step(ctx, j); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := a.Step(ctx, j); err != nil {
		tb.Fatal(err)
	}
	if got := a.Phase(j); got != phase {
		tb.Fatalf("state for phase %d runs in phase %d", phase, got)
	}
	return a, ctx, j + 1
}

// BenchmarkAlisaStep times one decode step at n = 1k, 8k and 64k cached
// positions, in Phase I and Phase III. The per-step cost must stay flat
// in n. The scheduler is restored from a snapshot every 1024 steps so
// the store stays within 1024 positions of n.
func BenchmarkAlisaStep(b *testing.B) {
	for _, phase := range []int{1, 3} {
		for _, n := range []int{1 << 10, 8 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("phase%d/n=%dk", phase, n>>10), func(b *testing.B) {
				base, baseCtx, next := stepState(b, n, phase)
				var a *Alisa
				var ctx Context
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%1024 == 0 {
						b.StopTimer()
						a = base.CloneScheduler().(*Alisa)
						ctx = *baseCtx
						ctx.Sys, ctx.Breakdown = baseCtx.Sys.Clone(), baseCtx.Breakdown.Clone()
						b.StartTimer()
					}
					if _, err := a.Step(&ctx, next+i%1024); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestAlisaStepZeroAllocs pins the steady-state Phase III step — offload,
// delete, rebalance, account — at zero allocations.
func TestAlisaStepZeroAllocs(t *testing.T) {
	a, ctx, j := stepState(t, 4096, 3)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.Step(ctx, j); err != nil {
			t.Fatal(err)
		}
		j++
	})
	if got := a.Phase(j - 1); got != 3 {
		t.Fatalf("measured steps ran in phase %d, want 3", got)
	}
	if allocs != 0 {
		t.Fatalf("Phase III Alisa.Step allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkAlisaAdmit times ALISA's admission as the serving loop runs
// it: a fresh auto-tuned scheduler's Init on a 512-token prompt (256
// output tokens, KV sparsity 0.8, INT8, opt-6.7b on V100-16GB with a
// warm decode-cost table) where everything fits on the GPU, followed by
// the Release that retires the sequence.
func BenchmarkAlisaAdmit(b *testing.B) {
	prof := memsim.V100_16G()
	mc := model.MustByName("opt-6.7b")
	cost := costmodel.New(prof)
	sys := memsim.NewSystem(prof)
	if err := sys.AllocGPU(mc.WeightBytes(2)); err != nil {
		b.Fatal(err)
	}
	ctx := &Context{
		Sys: sys, Cost: cost, Model: mc,
		Batch: 1, Input: 512, Output: 256,
		CachingRatio: 0.2, KVBits: 8,
		Breakdown: trace.NewBreakdown(),
	}
	ctx.Decode = costmodel.NewDecodeTable(&cost, mc, ctx.kvComputeWidth())
	if _, p1 := phaseIIStart(ctx); p1 < ctx.Output {
		b.Fatalf("admission context does not fit on the GPU (p1 %d < output %d)", p1, ctx.Output)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAlisa()
		if err := a.Init(ctx); err != nil {
			b.Fatal(err)
		}
		a.Release(ctx)
	}
}
