package alisa

import (
	"context"
	"testing"
)

// tokenCounter implements Observer directly, with no WantsTokens method,
// and counts the token events it receives.
type tokenCounter struct{ tokens int }

func (c *tokenCounter) OnStep(StepEvent)             {}
func (c *tokenCounter) OnAdmission(AdmissionEvent)   {}
func (c *tokenCounter) OnFirstToken(FirstTokenEvent) {}
func (c *tokenCounter) OnToken(TokenEvent)           { c.tokens++ }
func (c *tokenCounter) OnPreemption(PreemptionEvent) {}
func (c *tokenCounter) OnCompletion(CompletionEvent) {}

// gatedFuncs is an ObserverFuncs without a Token callback whose OnToken
// still counts, so a token event the loop should have skipped shows up.
type gatedFuncs struct {
	ObserverFuncs
	tokens *int
}

func (g gatedFuncs) OnToken(TokenEvent) { *g.tokens++ }

// gateTrace is three requests due at once whose shortest is admitted
// first, so its completion lands mid-iteration with two more sequences
// still to be credited a token after it.
func gateTrace() TraceWorkload {
	return TraceWorkload{
		{ID: 0, Input: 32, Output: 3},
		{ID: 1, Input: 32, Output: 9},
		{ID: 2, Input: 32, Output: 7},
	}
}

// runGateSession pushes gateTrace through a fresh session with the given
// engine observer and subscribers, and closes it.
func runGateSession(t *testing.T, engObs Observer, subs ...Observer) {
	t.Helper()
	opts := sessionEngineOpts("alisa")
	if engObs != nil {
		opts = append(opts, WithObserver(engObs))
	}
	eng, err := New("opt-6.7b", opts...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range subs {
		if err := s.Subscribe(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range gateTrace() {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 0 {
		t.Fatalf("gate trace preempted %d times; the token counts assume none", res.Preemptions)
	}
}

// TestObserverFuncsWithoutTokenGetsNoTokenCalls: with no observer taking
// tokens, the serving loop emits none — neither to the engine observer
// nor to a subscriber.
func TestObserverFuncsWithoutTokenGetsNoTokenCalls(t *testing.T) {
	var engTokens, subTokens, completions int
	engObs := gatedFuncs{ObserverFuncs{Completion: func(CompletionEvent) { completions++ }}, &engTokens}
	runGateSession(t, engObs, gatedFuncs{tokens: &subTokens})
	if completions != len(gateTrace()) {
		t.Fatalf("%d completions, want %d", completions, len(gateTrace()))
	}
	if engTokens != 0 || subTokens != 0 {
		t.Fatalf("token-less observers received %d (engine) and %d (subscriber) token calls, want 0", engTokens, subTokens)
	}
}

// TestDirectObserverGetsEveryToken: an observer implementing Observer
// without WantsTokens keeps receiving every token, whether it is the
// engine's observer or a subscriber, and alongside token-less observers.
func TestDirectObserverGetsEveryToken(t *testing.T) {
	want := 0
	for _, r := range gateTrace() {
		want += r.Output
	}
	var skipped int
	engObs, sub := &tokenCounter{}, &tokenCounter{}
	runGateSession(t, engObs, gatedFuncs{tokens: &skipped}, sub)
	if engObs.tokens != want || sub.tokens != want {
		t.Fatalf("direct observers received %d (engine) and %d (subscriber) tokens, want %d", engObs.tokens, sub.tokens, want)
	}
	// Once any observer wants tokens every member of the fan-out gets
	// them; a token-less one must tolerate the calls.
	if skipped != want {
		t.Fatalf("token-less subscriber beside a token observer saw %d calls, want %d", skipped, want)
	}
}

// TestSubscribeInCompletionGetsLaterTokens: a subscription made inside an
// OnCompletion callback, while no observer takes tokens, receives exactly
// the tokens generated after it — the count an always-delivering loop
// gives, including the tokens of the same iteration's later sequences.
func TestSubscribeInCompletionGetsLaterTokens(t *testing.T) {
	// Reference: record the full stream and count the tokens after the
	// first completion.
	var order []bool // true = token, false = completion
	ref := ObserverFuncs{
		Token:      func(TokenEvent) { order = append(order, true) },
		Completion: func(CompletionEvent) { order = append(order, false) },
	}
	runGateSession(t, ref)
	want, seen := 0, false
	for _, tok := range order {
		if !tok {
			seen = true
		} else if seen {
			want++
		}
	}

	late := &tokenCounter{}
	var s *Session
	subscribed := false
	engObs := ObserverFuncs{Completion: func(CompletionEvent) {
		if !subscribed {
			subscribed = true
			if err := s.Subscribe(late); err != nil {
				t.Error(err)
			}
		}
	}}
	eng, err := New("opt-6.7b", append(sessionEngineOpts("alisa"), WithObserver(engObs))...)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = eng.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, r := range gateTrace() {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	// Advance rather than Close: a closing session accepts no subscribers.
	for {
		progressed, err := s.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if want == 0 || late.tokens != want {
		t.Fatalf("late subscriber received %d tokens, want %d (tokens after the first completion)", late.tokens, want)
	}
}
