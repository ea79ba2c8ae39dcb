package gateway

import (
	"context"
	"sync"
)

// OverflowPolicy says what the bridge does when a subscriber's bounded
// event buffer is full — the slow-consumer contract. Either way the
// buffer never grows: a stalled SSE connection cannot hold unbounded
// memory hostage.
type OverflowPolicy int

const (
	// DropOldest discards the oldest buffered event to admit the new one
	// and counts the loss; the consumer sees a `dropped` marker carrying
	// the count before its next delivered event. The simulation never
	// stalls. A request's terminal event cannot be lost: it is published
	// last, so it is never the oldest when an overflow happens.
	DropOldest OverflowPolicy = iota
	// Block applies backpressure instead: the simulation driver waits
	// for the consumer to free a slot, trading simulated-time progress
	// for lossless delivery. Delivery timing changes; simulated results
	// do not (the pacing-bridge determinism contract).
	Block
)

// String names the policy as the -on-full flag spells it.
func (p OverflowPolicy) String() string {
	if p == Block {
		return "block"
	}
	return "drop"
}

// Subscriber is one request's bounded event stream between the bridge's
// driver goroutine (producer) and its HTTP connection handler
// (consumer). The producer publishes lifecycle events into a fixed ring;
// the consumer pulls them with Next. Exactly one goroutine produces and
// one consumes.
type Subscriber struct {
	id    string
	req   int
	block bool

	mu      sync.Mutex
	space   sync.Cond // producer waits here in Block mode
	buf     []Event   // fixed-capacity ring
	head, n int
	dropped int // events discarded since the last Next (DropOldest)
	closed  bool

	wake chan struct{} // 1-buffered consumer wakeup
}

func newSubscriber(id string, req, buffer int, policy OverflowPolicy) *Subscriber {
	s := &Subscriber{
		id:    id,
		req:   req,
		block: policy == Block,
		buf:   newRing(buffer),
		wake:  make(chan struct{}, 1),
	}
	s.space.L = &s.mu
	return s
}

// ID returns the gateway correlation ID the subscriber streams for.
func (s *Subscriber) ID() string { return s.id }

// Request returns the session's numeric request ID.
func (s *Subscriber) Request() int { return s.req }

// publish appends one event, honouring the overflow policy. It runs on
// the bridge's driver goroutine, inline with the simulation — this is
// the fan-out hot path, so it must not allocate or format.
//
//alisa:hotpath
func (s *Subscriber) publish(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.buf) {
		if s.block {
			for s.n == len(s.buf) && !s.closed {
				s.space.Wait()
			}
			if s.closed {
				s.mu.Unlock()
				return
			}
		} else {
			s.head++
			if s.head == len(s.buf) {
				s.head = 0
			}
			s.n--
			s.dropped++
		}
	}
	i := s.head + s.n
	if i >= len(s.buf) {
		i -= len(s.buf)
	}
	s.buf[i] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Next pops the oldest buffered event, blocking until one is available
// or ctx is done. dropped is how many events were discarded (DropOldest
// overflow) before the returned event — a non-zero count is surfaced to
// the client as a marker ahead of the event. ok is false only when ctx
// ended the wait.
func (s *Subscriber) Next(ctx context.Context) (ev Event, dropped int, ok bool) {
	for {
		if ev, dropped, ok = s.poll(); ok {
			return ev, dropped, true
		}
		select {
		case <-s.wake:
		case <-ctx.Done():
			return Event{}, 0, false
		}
	}
}

// poll is Next without the wait: ok is false when the ring is empty.
func (s *Subscriber) poll() (ev Event, dropped int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Event{}, 0, false
	}
	ev = s.buf[s.head]
	s.head++
	if s.head == len(s.buf) {
		s.head = 0
	}
	s.n--
	dropped = s.dropped
	s.dropped = 0
	if s.block {
		s.space.Signal()
	}
	return ev, dropped, true
}

// terminate force-publishes a terminal event, dropping the oldest
// buffered event to make room if needed — regardless of policy, and
// without ever blocking. A dying session must be able to end every
// stream even when a consumer has stalled a full Block-mode buffer.
func (s *Subscriber) terminate(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.buf) {
		s.head++
		if s.head == len(s.buf) {
			s.head = 0
		}
		s.n--
		s.dropped++
	}
	i := s.head + s.n
	if i >= len(s.buf) {
		i -= len(s.buf)
	}
	s.buf[i] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Close marks the consumer gone: pending and future publishes become
// no-ops and a producer blocked on backpressure is released. The
// consumer calls it once it has stopped reading (the handler, when its
// connection ends); the ring then goes back to a pool for the next
// request's subscriber. Idempotent.
func (s *Subscriber) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		ring := s.buf
		clear(ring)
		rings.Put(&ring)
		s.buf, s.head, s.n = nil, 0, 0
	}
	s.mu.Unlock()
	s.space.Broadcast()
}

// rings recycles subscriber rings. Every request gets one, and at
// gateway request rates the rings (64 events, about 12 KB, by default)
// would otherwise be most of the gateway's garbage.
var rings sync.Pool

// newRing returns a zeroed ring of n events, recycled when one of that
// size is pooled.
func newRing(n int) []Event {
	if r, ok := rings.Get().(*[]Event); ok && len(*r) == n {
		return *r
	}
	return make([]Event, n)
}
