package alisa

import (
	"context"
	"strings"
	"testing"
)

func TestSimulateHeadline(t *testing.T) {
	eng, err := New("opt-6.7b", WithScheduler("alisa"), WithKVSparsity(0.8), WithKVBits(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Simulate(context.Background(), Shape{Batch: 16, Input: 128, Output: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
}

func TestSimulateExplicitProfile(t *testing.T) {
	eng, err := New("opt-6.7b", WithProfile("H100-80GB"), WithScheduler("gpu-only"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Simulate(context.Background(), Shape{Batch: 8, Input: 64, Output: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatal("8×128 tokens must fit an H100")
	}
}

// TestSimulateErrors walks a bad name or shape through the whole public
// call — New, then Simulate — as a caller would.
func TestSimulateErrors(t *testing.T) {
	cases := []struct {
		model string
		opts  []Option
		shape Shape
	}{
		{"gpt-5", nil, Shape{Batch: 1, Input: 1, Output: 1}},
		{"opt-6.7b", []Option{WithScheduler("magic")}, Shape{Batch: 1, Input: 1, Output: 1}},
		{"opt-6.7b", []Option{WithProfile("TPU")}, Shape{Batch: 1, Input: 1, Output: 1}},
		{"opt-6.7b", nil, Shape{Batch: 0, Input: 1, Output: 1}},
	}
	for i, tc := range cases {
		eng, err := New(tc.model, tc.opts...)
		if err == nil {
			_, err = eng.Simulate(context.Background(), tc.shape)
		}
		if err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestEvaluatePolicyOrdering(t *testing.T) {
	ctx := context.Background()
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	swa, err := eng.EvaluatePolicy(ctx, "swa", 256)
	if err != nil {
		t.Fatal(err)
	}
	local, err := eng.EvaluatePolicy(ctx, "local", 256)
	if err != nil {
		t.Fatal(err)
	}
	if swa.MeanRecall <= local.MeanRecall {
		t.Fatalf("SWA recall %.3f should beat local %.3f", swa.MeanRecall, local.MeanRecall)
	}
	if swa.Spearman <= local.Spearman {
		t.Fatalf("SWA ρ %.3f should beat local %.3f", swa.Spearman, local.Spearman)
	}
	// The dense reference is the identity by definition: ρ ≡ 1 exactly,
	// not approximately (see PolicyReport.Spearman).
	denseEng, err := New("opt-6.7b", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := denseEng.EvaluatePolicy(ctx, "dense", 64)
	if err != nil {
		t.Fatal(err)
	}
	if dense.MeanRecall != 1 || dense.Spearman != 1 {
		t.Fatalf("dense should be the identity reference: %+v", dense)
	}
}

// TestEvaluatePolicyErrors walks a bad model, policy, or step count
// through New + Engine.EvaluatePolicy.
func TestEvaluatePolicyErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := New("gpt-5", WithKVSparsity(0.8)); err == nil {
		t.Fatal("expected model error")
	}
	eng, err := New("opt-6.7b", WithKVSparsity(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EvaluatePolicy(ctx, "magic", 16); err == nil {
		t.Fatal("expected policy error")
	}
	if _, err := eng.EvaluatePolicy(ctx, "swa", 0); err == nil {
		t.Fatal("expected steps error")
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments()) < 13 {
		t.Fatalf("expected ≥13 experiments, got %d", len(Experiments()))
	}
	out, err := RunExperiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ALISA") {
		t.Fatalf("table1 render missing content:\n%s", out)
	}
	if _, err := RunExperiment("fig99"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestCatalogs(t *testing.T) {
	if len(Models()) != 8 {
		t.Fatalf("models = %v", Models())
	}
	if len(Schedulers()) != 5 {
		t.Fatalf("schedulers = %v", Schedulers())
	}
}

func TestServePublicAPI(t *testing.T) {
	eng, err := New("opt-6.7b", WithScheduler("alisa"), WithKVSparsity(0.8), WithKVBits(8), WithMaxBatch(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Serve(context.Background(), PoissonTrace(12, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != 12 {
		t.Fatalf("completed %d of 12 requests", len(res.Requests))
	}
	if res.Goodput <= 0 || res.Throughput <= 0 {
		t.Fatalf("goodput %v / throughput %v not positive", res.Goodput, res.Throughput)
	}
	if res.TTFT.P99 <= 0 || res.TPOT.P50 <= 0 {
		t.Fatalf("latency summaries empty: TTFT %+v TPOT %+v", res.TTFT, res.TPOT)
	}
}

// TestServePublicAPIErrors pins that deepspeed-zero, a lockstep-only
// scheduler, compiles for Simulate but is rejected for serving.
func TestServePublicAPIErrors(t *testing.T) {
	eng, err := New("opt-6.7b", WithScheduler("deepspeed-zero"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Serve(context.Background(), UniformTrace(1, 0, 8, 8)); err == nil {
		t.Error("deepspeed-zero accepted as serving policy")
	}
}
