package gateway

import (
	"context"
	"errors"
	"log/slog"
	"testing"
	"time"

	alisa "repro"
)

func testEngine(t *testing.T) *alisa.Engine {
	t.Helper()
	eng, err := alisa.New("opt-6.7b",
		alisa.WithMaxBatch(4),
		alisa.WithSLO(10, 0.5),
		alisa.WithMetricsWindow(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func discardLogger() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}

func testBridge(t *testing.T, scale float64, buffer int, policy OverflowPolicy, hold bool) *Bridge {
	t.Helper()
	b, err := newBridge(testEngine(t), scale, buffer, policy, hold, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		b.Abort()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.Drain(ctx)
	})
	return b
}

// drainEvents pulls events until the terminal one (or the deadline),
// returning them along with the accumulated drop counts Next reported.
func drainEvents(t *testing.T, sub *Subscriber) (events []Event, drops []int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		ev, dropped, ok := sub.Next(ctx)
		if !ok {
			t.Fatalf("event stream ended before a terminal event (have %d events)", len(events))
		}
		events = append(events, ev)
		drops = append(drops, dropped)
		if ev.Kind.Terminal() {
			return events, drops
		}
	}
}

// TestBridgeBlockDeliversEverything runs a request through a 1-slot
// Block-mode buffer with a consumer in lockstep: backpressure stalls the
// driver instead of losing events, so the full lifecycle arrives in
// order with zero drops.
func TestBridgeBlockDeliversEverything(t *testing.T) {
	b := testBridge(t, 0, 1, Block, false)
	sub, err := b.Submit(context.Background(), SubmitSpec{ID: "blk", Input: 16, Output: 5, HasArrival: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.ID() != "blk" || sub.Request() != 0 {
		t.Fatalf("subscriber identity = (%q, %d), want (blk, 0)", sub.ID(), sub.Request())
	}

	events, drops := drainEvents(t, sub)
	wantKinds := []Kind{KindAdmission, KindFirstToken, KindToken, KindToken, KindToken, KindToken, KindToken, KindCompletion}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(wantKinds), events)
	}
	tokenIndex := 0
	for i, ev := range events {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %q, want %q", i, ev.Kind, wantKinds[i])
		}
		if drops[i] != 0 {
			t.Errorf("event %d reported %d drops; Block mode must not lose events", i, drops[i])
		}
		if ev.ID != "blk" || ev.Request != 0 {
			t.Errorf("event %d correlation = (%q, %d), want (blk, 0)", i, ev.ID, ev.Request)
		}
		if ev.Kind == KindToken {
			tokenIndex++
			if ev.Index != tokenIndex {
				t.Errorf("token event index = %d, want %d", ev.Index, tokenIndex)
			}
		}
	}
	final := events[len(events)-1]
	if final.TTFT <= 0 || final.E2E < final.TTFT {
		t.Errorf("completion latencies TTFT=%v E2E=%v implausible", final.TTFT, final.E2E)
	}
}

// TestBridgeDropOldestMarksLoss leaves a 2-slot DropOldest buffer
// unconsumed until the whole generation has run: the oldest events are
// discarded and counted, but the terminal completion survives (it is
// published last, so it is never the oldest at overflow time).
func TestBridgeDropOldestMarksLoss(t *testing.T) {
	b := testBridge(t, 0, 2, DropOldest, false)
	sub, err := b.Submit(context.Background(), SubmitSpec{ID: "slow", Input: 16, Output: 8, HasArrival: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Wait for the generation to finish before reading a single event:
	// the driver serves Status only once it has gone idle.
	st, err := b.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 0 || st.InFlight != 0 {
		t.Fatalf("status after idle = %+v, want drained queues", st)
	}

	events, drops := drainEvents(t, sub)
	// 11 lifecycle events (admission, first token, 8 tokens, completion)
	// squeezed through 2 slots: exactly the last two survive.
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(events), events)
	}
	if drops[0] != 9 {
		t.Errorf("first delivered event reported %d drops, want 9", drops[0])
	}
	if events[1].Kind != KindCompletion {
		t.Errorf("final event kind = %q, want completion to survive overflow", events[1].Kind)
	}
	if st.Window.Count != 1 {
		t.Errorf("window count = %d, want 1 — drops must not touch metrics", st.Window.Count)
	}
}

// TestBridgeDrainRejectsSubmissions pins the admission gate: the instant
// Drain is requested, Submit fails with ErrDraining — even while the
// driver is stalled mid-advance on a backpressured subscriber and cannot
// serve commands.
func TestBridgeDrainRejectsSubmissions(t *testing.T) {
	b := testBridge(t, 0, 1, Block, false)
	sub, err := b.Submit(context.Background(), SubmitSpec{ID: "inflight", Input: 16, Output: 4, HasArrival: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Don't consume: the driver wedges on the 1-slot buffer, so the
	// drain below cannot complete (ruling out an ErrClosed race) until
	// we drain the events ourselves.
	drainDone := make(chan error, 1)
	go func() {
		_, err := b.Drain(context.Background())
		drainDone <- err
	}()
	for b.Accepting() {
		time.Sleep(time.Millisecond)
	}

	if _, err := b.Submit(context.Background(), SubmitSpec{ID: "late", Input: 8, Output: 2, HasArrival: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain: %v, want ErrDraining", err)
	}

	events, _ := drainEvents(t, sub)
	if events[len(events)-1].Kind != KindCompletion {
		t.Fatalf("in-flight request must complete through a drain, got %+v", events)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	res, err := b.Result()
	if err != nil || res == nil || res.Completed != 1 {
		t.Fatalf("Result after drain = %+v, %v; want 1 completion", res, err)
	}
	if _, err := b.Submit(context.Background(), SubmitSpec{Input: 8, Output: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close: %v, want ErrClosed", err)
	}
	if st, err := b.Status(context.Background()); err != nil || !st.Draining {
		t.Fatalf("final Status = %+v, %v; want retained draining snapshot", st, err)
	}
}

// TestBridgeHoldGatesClock pins the scripted-workload gate: submissions
// against a held bridge queue on the simulated timeline but the clock
// stays at zero until Release.
func TestBridgeHoldGatesClock(t *testing.T) {
	b := testBridge(t, 0, 8, DropOldest, true)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		spec := SubmitSpec{Input: 16, Output: 2, Arrival: float64(i) * 0.25, HasArrival: true}
		if _, err := b.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Held || st.Clock != 0 || st.Pending != 3 {
		t.Fatalf("held status = %+v, want clock 0 with 3 pending", st)
	}
	if err := b.Release(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := b.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed %d of 3 after release", res.Completed)
	}
}

// TestBridgeAbortTerminatesStreams cancels a real-time (-time-scale 1)
// bridge mid-generation: every open stream must end with an error event
// rather than hang, and the bridge must report the failure.
func TestBridgeAbortTerminatesStreams(t *testing.T) {
	b := testBridge(t, 1, 64, DropOldest, false)
	sub, err := b.Submit(context.Background(), SubmitSpec{ID: "doomed", Input: 256, Output: 64, HasArrival: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	b.Abort()

	events, _ := drainEvents(t, sub)
	final := events[len(events)-1]
	if final.Kind != KindError || final.Err == "" {
		t.Fatalf("aborted stream ended with %+v, want an error event", final)
	}
	if b.Accepting() {
		t.Error("bridge still accepting after Abort")
	}
	if _, err := b.Submit(context.Background(), SubmitSpec{Input: 8, Output: 2}); err == nil {
		t.Error("Submit accepted after Abort")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := b.Drain(ctx); err == nil {
		t.Error("Drain after Abort should surface the cancellation")
	}
}
