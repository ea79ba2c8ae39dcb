package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/kvcache"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/trace"
)

// The reference scheduler below is the original O(n)-per-step
// formulation of Alisa.Init/Step: it tunes through the full Optimize,
// places the prompt one token at a time, rescans the whole prefix for
// the placement shares and the whole window for the local misses, finds
// every eviction victim by a scan from the end of the store, and has no
// Phase I shortcut. The differential test drives it beside the
// production scheduler and demands bit-identical plans, placements and
// system state.

// refScan returns the oldest (or newest) position at loc by a full scan,
// or -1.
func refScan(s *kvcache.TokenStore, loc kvcache.Location, newest bool) int {
	if newest {
		for i := s.Len() - 1; i >= 0; i-- {
			if s.Loc(i) == loc {
				return i
			}
		}
		return -1
	}
	for i := 0; i < s.Len(); i++ {
		if s.Loc(i) == loc {
			return i
		}
	}
	return -1
}

func refInit(a *Alisa, ctx *Context) error {
	a.store = kvcache.NewTokenStore()
	a.phase2Start, a.phase3Start = -1, -1
	if a.AutoTune {
		p := Optimize(ctx)
		a.Beta, a.P2 = p.Beta, p.P2
	}
	tokenBytes := ctx.TokenBytes()
	for i := 0; i < ctx.Input; i++ {
		if err := ctx.Sys.AllocGPU(tokenBytes); err == nil {
			a.store.Append(kvcache.GPU)
			continue
		}
		for {
			errCPU := ctx.Sys.AllocCPU(tokenBytes)
			if errCPU == nil {
				ctx.ChargeToCPU(tokenBytes)
				a.store.Append(kvcache.CPU)
				break
			}
			if !a.Recompute {
				return fmt.Errorf("alisa: prefill KV exceeds CPU memory: %w", errCPU)
			}
			old := refScan(a.store, kvcache.CPU, false)
			if old < 0 {
				a.store.Append(kvcache.Deleted)
				a.markPhase3(0)
				break
			}
			ctx.Sys.FreeCPU(tokenBytes)
			a.store.Move(old, kvcache.Deleted)
			a.markPhase3(0)
		}
	}
	if ctx.KVBits < 16 {
		q := ctx.Cost.Quantize(int64(ctx.Input) * ctx.TokenBytesFP16())
		ctx.Sys.Advance(q.Seconds)
		ctx.Breakdown.Add(trace.CatQuant, q.Seconds)
	}
	return nil
}

func refStep(a *Alisa, ctx *Context, j int) (StepPlan, error) {
	n := a.store.Len()
	tokenBytes := ctx.TokenBytes()
	attended := attendedTokens(ctx, n)
	plan := StepPlan{Attended: attended, Sparse: ctx.CachingRatio < 1}
	local := (attended - 1) / 2
	if ctx.CachingRatio >= 1 {
		local = n
	}
	if local > n {
		local = n
	}
	global := attended - 1 - local
	if global < 0 {
		global = 0
	}
	fetched, recomputed := refLocalMisses(a.store, n, local)
	prefix := n - local
	if global > 0 && prefix > 0 {
		_, cpuW, delW := refWeightedFractions(a.store, prefix)
		fetched += int(math.Round(float64(global) * cpuW))
		recomputed += int(math.Round(float64(global) * delW))
	}
	if fetched > 0 {
		ctx.ChargeToGPU(int64(fetched) * tokenBytes)
	}
	plan.FetchedTokens = fetched
	plan.RecomputedTokens = recomputed

	offloaded, deleted := 0, 0
	for ctx.Sys.GPUHeadroom() < tokenBytes {
		victim := refScan(a.store, kvcache.GPU, a.EvictNewestFirst)
		if victim < 0 {
			return plan, fmt.Errorf("alisa: GPU full with no evictable KV (token bytes %d, headroom %d)",
				tokenBytes, ctx.Sys.GPUHeadroom())
		}
		if errCPU := ctx.Sys.AllocCPU(tokenBytes); errCPU != nil {
			if !a.Recompute {
				return plan, fmt.Errorf("alisa: CPU memory exhausted and recomputation disabled: %w", errCPU)
			}
			old := refScan(a.store, kvcache.CPU, false)
			if old < 0 {
				return plan, fmt.Errorf("alisa: CPU memory exhausted with nothing deletable: %w", errCPU)
			}
			ctx.Sys.FreeCPU(tokenBytes)
			a.store.Move(old, kvcache.Deleted)
			deleted++
			a.markPhase3(j)
			continue
		}
		ctx.ChargeToCPU(tokenBytes)
		ctx.Sys.FreeGPU(tokenBytes)
		a.store.Move(victim, kvcache.CPU)
		offloaded++
		a.markPhase2(j)
	}
	if err := ctx.Sys.AllocGPU(tokenBytes); err != nil {
		return plan, fmt.Errorf("alisa: new-token KV: %w", err)
	}
	a.store.Append(kvcache.GPU)
	if a.Recompute && j >= a.P2 && a.Beta > 0 {
		for {
			cpu := a.store.Count(kvcache.CPU)
			del := a.store.Count(kvcache.Deleted)
			if cpu == 0 || float64(del) >= a.Beta*float64(del+cpu) {
				break
			}
			victim := refScan(a.store, kvcache.CPU, false)
			ctx.Sys.FreeCPU(tokenBytes)
			a.store.Move(victim, kvcache.Deleted)
			deleted++
			a.markPhase3(j)
		}
	}
	plan.OffloadedTokens = offloaded
	plan.DeletedTokens = deleted
	return plan, nil
}

// refLocalMisses counts, among the newest `local` cached positions, how
// many must be fetched from CPU or recomputed.
func refLocalMisses(s *kvcache.TokenStore, n, local int) (fetched, recomputed int) {
	for pos := n - local; pos < n; pos++ {
		switch s.Loc(pos) {
		case kvcache.CPU:
			fetched++
		case kvcache.Deleted:
			recomputed++
		}
	}
	return fetched, recomputed
}

// refWeightedFractions returns the placement shares of the first prefix
// positions.
func refWeightedFractions(s *kvcache.TokenStore, prefix int) (gpuW, cpuW, delW float64) {
	if prefix <= 0 {
		return 0, 0, 0
	}
	var counts [3]int
	for i := 0; i < prefix; i++ {
		counts[s.Loc(i)]++
	}
	total := float64(prefix)
	return float64(counts[kvcache.GPU]) / total,
		float64(counts[kvcache.CPU]) / total,
		float64(counts[kvcache.Deleted]) / total
}

// diffCase is one randomized differential run.
type diffCase struct {
	batch, input, output int
	ratio                float64
	kvBits               int
	gpuTokens, cpuTokens int // KV capacity in token positions
	beta                 float64
	p2                   int
	recompute, newest    bool
	autoTune             bool
	// tenantTokens of GPU KV belong to another sequence that completes
	// before step tenantLeaves, freeing headroom mid-run as a serving
	// batch does.
	tenantTokens, tenantLeaves int
}

func randomDiffCase(rng *rand.Rand) diffCase {
	c := diffCase{
		batch:     1 + rng.Intn(8),
		input:     1 + rng.Intn(300),
		output:    1 + rng.Intn(300),
		kvBits:    []int{16, 8}[rng.Intn(2)],
		beta:      []float64{0, 0.3, 0.5, 1, rng.Float64()}[rng.Intn(5)],
		recompute: rng.Intn(4) != 0,
		newest:    rng.Intn(4) == 0,
		autoTune:  rng.Intn(4) == 0,
	}
	switch rng.Intn(3) {
	case 0:
		c.ratio = 1
	case 1:
		c.ratio = 0.2
	default:
		c.ratio = 0.05 + 0.9*rng.Float64()
	}
	total := c.input + c.output
	switch rng.Intn(5) {
	case 0: // everything fits: Phase I throughout
		c.gpuTokens, c.cpuTokens = total+1, total
	case 1: // GPU pressure, roomy CPU: Phase II
		c.gpuTokens, c.cpuTokens = 1+rng.Intn(total), total
	case 2: // the prompt fits, decode overflows: Phase I, then II and III
		c.gpuTokens = c.input + 1 + rng.Intn(c.output)
		c.cpuTokens = rng.Intn(c.output/2 + 1)
	default: // both tight: eviction and deletion
		c.gpuTokens, c.cpuTokens = 1+rng.Intn(total), rng.Intn(total/2+1)
	}
	c.p2 = rng.Intn(c.output + 1)
	if rng.Intn(2) == 0 {
		c.tenantTokens = 1 + rng.Intn(total/2+1)
		c.tenantLeaves = rng.Intn(c.output)
	}
	return c
}

// context builds a system whose KV capacities are exactly the case's
// token budgets on top of the reserved weights and activations.
func (c diffCase) context(t *testing.T) *Context {
	t.Helper()
	cfg := model.MustByName("opt-6.7b")
	prof := memsim.V100_16G()
	ctx := &Context{Cost: costmodel.New(prof), Model: cfg, Batch: c.batch, Input: c.input, Output: c.output,
		CachingRatio: c.ratio, KVBits: c.kvBits, Breakdown: trace.NewBreakdown()}
	prof.GPUMemBytes = ctx.WeightBytes() + ctx.ActivationBytes() + int64(c.gpuTokens+c.tenantTokens)*ctx.TokenBytes()
	prof.CPUMemBytes = int64(c.cpuTokens) * ctx.TokenBytes()
	ctx.Sys = memsim.NewSystem(prof)
	ctx.Cost = costmodel.New(prof)
	if err := ctx.Sys.AllocGPU(ctx.WeightBytes()); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Sys.AllocGPU(ctx.ActivationBytes()); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Sys.AllocGPU(int64(c.tenantTokens) * ctx.TokenBytes()); err != nil {
		t.Fatal(err)
	}
	return ctx
}

func sameStore(a, b *kvcache.TokenStore) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Loc(i) != b.Loc(i) {
			return false
		}
	}
	ag, ac, ad := a.Counts()
	bg, bc, bd := b.Counts()
	return ag == bg && ac == bc && ad == bd
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestAlisaStepMatchesReference drives the production scheduler and the
// O(n) reference side by side over seeded random runs spanning all three
// phases, both eviction orders, recomputation on and off, tight GPU and
// CPU budgets, dense and sparse caching ratios, auto-tuned parameters
// (everything-fits and grid-search contexts), prompts that overflow the
// GPU mid-prompt, and runs that cross Phase I → II → III. Every plan,
// every placement, every phase marker and the whole simulated system —
// clock, usage, GPU/CPU peaks, transfer counters — and the breakdown must
// agree bit for bit after every step.
func TestAlisaStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240611))
	var phases [4]int // runs whose last step executed in each phase
	var newest, noRecompute, dense, sparse int
	var tunedFits, tunedGrid, promptSpill, crossed, deletedOnly int
	for run := 0; run < 600; run++ {
		c := randomDiffCase(rng)
		ctxA, ctxB := c.context(t), c.context(t)
		got := NewAlisaManual(c.beta, c.p2, c.recompute)
		want := NewAlisaManual(c.beta, c.p2, c.recompute)
		got.EvictNewestFirst, want.EvictNewestFirst = c.newest, c.newest
		got.AutoTune, want.AutoTune = c.autoTune, c.autoTune
		if c.autoTune {
			if _, p1 := phaseIIStart(ctxA); p1 >= c.output {
				tunedFits++
			} else {
				tunedGrid++
			}
		}

		errA, errB := got.Init(ctxA), refInit(want, ctxB)
		if errString(errA) != errString(errB) {
			t.Fatalf("run %d %+v: Init error %q, reference %q", run, c, errString(errA), errString(errB))
		}
		if got.Beta != want.Beta || got.P2 != want.P2 {
			t.Fatalf("run %d %+v: tuned (β=%v, P2=%d), reference (β=%v, P2=%d)", run, c, got.Beta, got.P2, want.Beta, want.P2)
		}
		if *ctxA.Sys != *ctxB.Sys {
			t.Fatalf("run %d %+v: system state after Init %+v, reference %+v", run, c, *ctxA.Sys, *ctxB.Sys)
		}
		if errA == nil && c.input > c.gpuTokens && got.store.Count(kvcache.GPU) > 0 {
			promptSpill++
		}
		steps := 0
		for j := 0; errA == nil && j < c.output; j++ {
			if c.tenantTokens > 0 && j == c.tenantLeaves {
				ctxA.Sys.FreeGPU(int64(c.tenantTokens) * ctxA.TokenBytes())
				ctxB.Sys.FreeGPU(int64(c.tenantTokens) * ctxB.TokenBytes())
			}
			if _, cpu, del := got.store.Counts(); cpu == 0 && del > 0 && ctxA.Sys.GPUHeadroom() >= ctxA.TokenBytes() {
				deletedOnly++
			}
			var pa, pb StepPlan
			pa, errA = got.Step(ctxA, j)
			pb, errB = refStep(want, ctxB, j)
			if errString(errA) != errString(errB) {
				t.Fatalf("run %d step %d %+v: error %q, reference %q", run, j, c, errString(errA), errString(errB))
			}
			if pa != pb {
				t.Fatalf("run %d step %d %+v: plan %+v, reference %+v", run, j, c, pa, pb)
			}
			if !sameStore(got.store, want.store) {
				t.Fatalf("run %d step %d %+v: placements diverged from the reference", run, j, c)
			}
			steps = j + 1
		}
		if !sameStore(got.store, want.store) {
			t.Fatalf("run %d %+v: placements diverged from the reference", run, c)
		}
		if *ctxA.Sys != *ctxB.Sys {
			t.Fatalf("run %d %+v: system state %+v, reference %+v", run, c, *ctxA.Sys, *ctxB.Sys)
		}
		if *ctxA.Breakdown != *ctxB.Breakdown {
			t.Fatalf("run %d %+v: breakdown %s, reference %s", run, c, ctxA.Breakdown, ctxB.Breakdown)
		}
		a2, a3 := got.PhaseStarts()
		b2, b3 := want.PhaseStarts()
		if a2 != b2 || a3 != b3 {
			t.Fatalf("run %d %+v: phase starts (%d,%d), reference (%d,%d)", run, c, a2, a3, b2, b3)
		}
		if errA == nil && steps > 0 {
			phases[got.Phase(steps-1)]++
			if c.newest && a2 >= 0 {
				newest++
			}
			if !c.recompute && a2 >= 0 {
				noRecompute++
			}
			if c.ratio >= 1 {
				dense++
			} else {
				sparse++
			}
			if a2 > 0 && a3 > a2 {
				crossed++
			}
		}
	}
	if phases[1] == 0 || phases[2] == 0 || phases[3] == 0 || newest == 0 || noRecompute == 0 || dense == 0 || sparse == 0 {
		t.Fatalf("coverage gap: completed runs ending in phases I/II/III %v, newest-first evicting %d, no-recompute evicting %d, dense %d, sparse %d",
			phases[1:], newest, noRecompute, dense, sparse)
	}
	if tunedFits == 0 || tunedGrid == 0 || promptSpill == 0 || crossed == 0 || deletedOnly == 0 {
		t.Fatalf("coverage gap: auto-tuned fits %d, auto-tuned grid %d, mid-prompt GPU overflow %d, Phase I→II→III runs %d, steps with GPU room and only deleted tokens off it %d",
			tunedFits, tunedGrid, promptSpill, crossed, deletedOnly)
	}
	t.Logf("completed runs ending in phases I/II/III: %v; auto-tuned fits/grid %d/%d; mid-prompt overflow %d; I→II→III %d; deleted-only steps with GPU room %d",
		phases[1:], tunedFits, tunedGrid, promptSpill, crossed, deletedOnly)
}
