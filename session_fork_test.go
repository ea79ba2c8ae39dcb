package alisa

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestSessionFork pins the public fork contract: a fork that takes the
// same future as its parent reproduces the straight-line run bit for bit
// — final ServeResult, event log, and the rolling window at the branch
// point — while a fork pushed extra work diverges without disturbing
// either the parent or its sibling.
func TestSessionFork(t *testing.T) {
	trace := PoissonTrace(16, 3.0, 21)
	ctx := context.Background()
	open := func() (*Session, *Engine) {
		eng, err := New("opt-6.7b", sessionEngineOpts("alisa")...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.Open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return s, eng
	}

	straightSess, _ := open()
	for _, r := range trace {
		if err := straightSess.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	straight, err := straightSess.Close()
	if err != nil {
		t.Fatal(err)
	}

	s, _ := open()
	for _, r := range trace {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if s.InFlight() == 0 {
		t.Fatal("fork point has no in-flight sequences; nothing exercised")
	}

	same, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	diverged, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Snapshot(), same.Snapshot()) {
		t.Error("fork's rolling window diverged from parent at the branch point")
	}
	if err := diverged.Push(Request{ID: 9001, Arrival: diverged.Clock(), Input: 64, Output: 8}); err != nil {
		t.Fatal(err)
	}

	if got, err := same.Close(); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(got, straight) {
		t.Errorf("same-future fork diverged from straight-line run:\nfork:     %+v\nstraight: %+v", got, straight)
	}
	if got, err := diverged.Close(); err != nil {
		t.Fatal(err)
	} else if got.Completed != straight.Completed+1 {
		t.Errorf("diverged fork completed %d, want %d", got.Completed, straight.Completed+1)
	}
	if got, err := s.Close(); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(got, straight) {
		t.Error("forking perturbed the parent session")
	}

	if _, err := s.Fork(); err == nil {
		t.Fatal("fork of a closed session succeeded")
	}
}

// TestSessionForkConcurrentAdvance pins the fork-ownership rule of the
// serving loop's lazily filled decode-cost table: a scale-mode session
// forked mid-run, with parent and fork then driven concurrently through
// requests long enough to grow the table past anything the shared
// prefix filled, must reproduce each one's straight-line run bit for
// bit. Under -race it also proves the two never share a table.
func TestSessionForkConcurrentAdvance(t *testing.T) {
	ctx := context.Background()
	eng, err := New("opt-6.7b", sessionEngineOpts("alisa", WithExactMetrics(-1))...)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewUniformTrace(6, 0.05, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	const turns = 4
	// prefix pushes the shared history and advances to the fork point.
	prefix := func() (*Session, float64) {
		s, err := eng.Open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range base {
			if err := s.Push(r); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < turns; i++ {
			if _, err := s.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		return s, s.Clock()
	}
	futures := [2][]Request{
		{{ID: 100, Input: 1800, Output: 200}, {ID: 101, Input: 900, Output: 120}},
		{{ID: 200, Input: 1500, Output: 240}, {ID: 201, Input: 1200, Output: 60}},
	}
	finish := func(s *Session, at float64, future []Request) (*ServeResult, error) {
		for _, r := range future {
			r.Arrival = at
			if err := s.Push(r); err != nil {
				return nil, err
			}
		}
		return s.Close()
	}

	var straight [2]*ServeResult
	for i, future := range futures {
		s, at := prefix()
		if straight[i], err = finish(s, at, future); err != nil {
			t.Fatal(err)
		}
	}

	parent, at := prefix()
	if parent.InFlight() == 0 {
		t.Fatal("fork point has no in-flight sequences; nothing exercised")
	}
	fork, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	var got [2]*ServeResult
	var errs [2]error
	var wg sync.WaitGroup
	for i, s := range []*Session{parent, fork} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = finish(s, at, futures[i])
		}()
	}
	wg.Wait()
	for i, name := range []string{"parent", "fork"} {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		if !reflect.DeepEqual(got[i], straight[i]) {
			t.Errorf("%s advanced concurrently diverged from its straight-line run:\n got:      %+v\n straight: %+v", name, got[i], straight[i])
		}
	}
}

// TestWithExactMetricsScaleServe pins the engine-level threshold option:
// a scale-mode Serve reports no per-request records but identical
// order-independent aggregates, and the default threshold keeps ordinary
// traces on the exact path.
func TestWithExactMetricsScaleServe(t *testing.T) {
	trace := PoissonTrace(24, 3.0, 9)
	ctx := context.Background()
	exactEng, err := New("opt-6.7b", WithMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := exactEng.Serve(ctx, trace)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Requests == nil {
		t.Fatal("default threshold pushed a 24-request trace into scale mode")
	}

	scaleEng, err := New("opt-6.7b", WithMaxBatch(8), WithExactMetrics(-1))
	if err != nil {
		t.Fatal(err)
	}
	scale, err := scaleEng.Serve(ctx, trace)
	if err != nil {
		t.Fatal(err)
	}
	if scale.Requests != nil {
		t.Fatalf("scale mode retained %d records", len(scale.Requests))
	}
	if scale.Completed != exact.Completed || scale.Makespan != exact.Makespan ||
		scale.Throughput != exact.Throughput || scale.Goodput != exact.Goodput ||
		scale.SLOAttainment != exact.SLOAttainment || scale.Preemptions != exact.Preemptions {
		t.Fatalf("scale-mode aggregates drifted:\nexact: %+v\nscale: %+v", exact, scale)
	}
}

// TestScaleSessionCompletesPacedStream streams 20 000 requests through
// one scale-mode Session (streaming digests, recycled records) with the
// queue topped up to an in-flight cap of 256 and advanced until it
// half-drains — an open-loop client with bounded backlog. Every request
// must complete.
func TestScaleSessionCompletesPacedStream(t *testing.T) {
	const n, liveCap = 20_000, 256
	eng, err := New("opt-6.7b", WithScheduler("gpu-only"), WithMaxBatch(8), WithExactMetrics(-1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for next := 0; next < n; {
		for next < n && s.Pending()+s.InFlight() < liveCap {
			if err := s.Push(Request{ID: next, Arrival: s.Clock(), Input: 32, Output: 4}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for s.Pending()+s.InFlight() > liveCap/2 {
			if _, err := s.Advance(); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d of %d requests", res.Completed, n)
	}
	if res.Requests != nil {
		t.Fatalf("scale mode retained %d records", len(res.Requests))
	}
}
