package alisa

import "repro/internal/events"

// Observer receives streaming run events — decode steps, request
// admissions, preemptions, and completions — as a simulation unfolds,
// instead of only the final report. Attach one to an Engine with
// WithObserver; it then sees events from both Simulate (step events) and
// Serve (all four kinds), delivered synchronously and in deterministic
// order from the single-goroutine simulation loops. All event times are
// simulated seconds, not wall time.
//
// Implement the interface directly, or use ObserverFuncs to subscribe to
// a subset of events.
//
// Token events come once per generated token, so an observer that does
// not need them can say so with an optional method:
//
//	WantsTokens() bool
//
// The serving loop asks before each decode iteration's token events and
// again after every completion event, and skips OnToken while no
// observer wants tokens. ObserverFuncs answers true exactly when its
// Token callback is set, and MultiObserver/SynchronizedObserver ask
// their members. An observer without the method receives every token.
type Observer = events.Observer

// StepEvent reports one completed decode step (Simulate) or one
// continuous-batching decode iteration (Serve).
type StepEvent = events.Step

// AdmissionEvent reports a request joining the decode batch (Serve).
type AdmissionEvent = events.Admission

// FirstTokenEvent reports a request producing its first output token —
// the end of prefill after its (final) admission (Serve and Session).
type FirstTokenEvent = events.FirstToken

// TokenEvent reports one generated output token of one request, emitted
// once per active sequence per decode iteration (Serve and Session).
// Leave the callback nil unless you need token-level streaming; while no
// observer wants tokens (see Observer's WantsTokens), none are emitted.
type TokenEvent = events.Token

// PreemptionEvent reports a sequence losing its KV under memory pressure
// (Serve).
type PreemptionEvent = events.Preemption

// CompletionEvent reports a request finishing its final decode step
// (Serve).
type CompletionEvent = events.Completion

// ObserverFuncs adapts a set of optional callbacks to Observer; nil
// fields ignore their events, and a nil Token field opts out of token
// events (WantsTokens reports false).
type ObserverFuncs = events.Funcs

// MultiObserver fans every event out to each observer in order; nil
// entries are skipped.
func MultiObserver(obs ...Observer) Observer { return events.Multi(obs...) }

// SynchronizedObserver wraps an observer so callbacks arriving from
// several goroutines — one observer shared across the concurrent cells
// of ServeMany or a `-parallel` sweep — are serialized through one
// mutex; the wrapped observer then needs no internal locking. ServeMany
// applies this wrapping to the engine's observer automatically; use it
// directly when sharing one observer across engines run concurrently.
// A nil observer wraps to nil.
func SynchronizedObserver(o Observer) Observer { return events.Synchronized(o) }
