package gateway

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// flushRecorder is a ResponseWriter that records what had been written
// at each Flush — the moment bytes actually leave a real connection —
// so the tests can check when each event reached the client.
type flushRecorder struct {
	header http.Header
	// onWriteHeader, if set, runs inside WriteHeader on the handler's
	// goroutine, before the handler reads its first event.
	onWriteHeader func()

	mu      sync.Mutex
	status  int
	body    bytes.Buffer
	flushes []flushSnapshot
	flushed chan struct{} // closed at the first Flush
}

// flushSnapshot is the response as of one Flush.
type flushSnapshot struct {
	at        time.Time
	status    int
	requestID string
	written   int // body bytes written so far
}

func newFlushRecorder() *flushRecorder {
	return &flushRecorder{header: make(http.Header), flushed: make(chan struct{})}
}

func (r *flushRecorder) Header() http.Header { return r.header }

func (r *flushRecorder) WriteHeader(status int) {
	r.mu.Lock()
	r.status = status
	r.mu.Unlock()
	if r.onWriteHeader != nil {
		r.onWriteHeader()
	}
}

func (r *flushRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *flushRecorder) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushes = append(r.flushes, flushSnapshot{at: time.Now(), status: r.status,
		requestID: r.header.Get("X-Request-Id"), written: r.body.Len()})
	if len(r.flushes) == 1 {
		close(r.flushed)
	}
}

// result returns the body and flush log; call it once the handler has
// returned.
func (r *flushRecorder) result() (string, []flushSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.String(), append([]flushSnapshot(nil), r.flushes...)
}

const goldenRequest = `{"id":"golden-1","input_tokens":8,"max_tokens":3,"arrival":0,"stream":true}`

func completionRequestFor(body string) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/v1/completions", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// waitIdle blocks until the gateway has nothing pending or in flight:
// every event of every submitted request has been published.
func waitIdle(t *testing.T, g *Gateway) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		st, err := g.bridge.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !st.Held && st.Pending == 0 && st.InFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never went idle: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamReadyEventsOneFlush: at time scale 0, a stream whose whole
// lifecycle is buffered before the handler reads it goes out in exactly
// one Flush, headers included, with the golden bytes.
func TestStreamReadyEventsOneFlush(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0, Hold: true})
	rec := newFlushRecorder()
	rec.onWriteHeader = func() {
		if err := g.Release(context.Background()); err != nil {
			t.Fatal(err)
		}
		waitIdle(t, g)
	}
	g.ServeHTTP(rec, completionRequestFor(goldenRequest))

	body, flushes := rec.result()
	if body != goldenSSE {
		t.Errorf("SSE transcript drifted:\n got: %q\nwant: %q", body, goldenSSE)
	}
	if len(flushes) != 1 {
		t.Fatalf("%d flushes, want exactly 1 for a fully ready stream", len(flushes))
	}
	if f := flushes[0]; f.status != http.StatusOK || f.requestID != "golden-1" || f.written != len(goldenSSE) {
		t.Errorf("flush = %+v, want status 200, X-Request-Id golden-1 and the whole body", f)
	}
}

// TestStreamHeldFlushesHeaders: coalescing must not delay the headers.
// On a held gateway no event can exist yet, so the handler's first wait
// must already have flushed the 200 and the X-Request-Id.
func TestStreamHeldFlushesHeaders(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0, Hold: true})
	rec := newFlushRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.ServeHTTP(rec, completionRequestFor(goldenRequest))
	}()
	select {
	case <-rec.flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("held stream never flushed its headers")
	}
	st, err := g.bridge.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Held {
		t.Fatal("gateway released before the test released it")
	}
	rec.mu.Lock()
	first := rec.flushes[0]
	rec.mu.Unlock()
	if first.status != http.StatusOK || first.requestID != "golden-1" || first.written != 0 {
		t.Errorf("first flush = %+v, want status 200 and X-Request-Id golden-1 with no body yet", first)
	}

	if err := g.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not finish after release")
	}
	if body, _ := rec.result(); body != goldenSSE {
		t.Errorf("SSE transcript drifted:\n got: %q\nwant: %q", body, goldenSSE)
	}
}

// TestStreamFlushesBeforePacedWait: every event already appended is
// flushed before the handler sleeps toward a later delivery deadline,
// and no event is flushed before its own deadline. The ring is filled
// up front with events due at spaced wall instants, the situation in
// which a writer that coalesced across waits would hold earlier events
// back until the last deadline.
func TestStreamFlushesBeforePacedWait(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 1})
	const gap = 150 * time.Millisecond
	start := time.Now()
	sub := newSubscriber("paced", 7, 16, DropOldest)
	evs := []Event{
		{Kind: KindAdmission, Clock: 0.1, Input: 8, Output: 3, Batch: 1, At: start.Add(gap)},
		{Kind: KindFirstToken, Clock: 0.1, TTFT: 0.1, At: start.Add(gap)},
		{Kind: KindToken, Clock: 0.2, Index: 1, At: start.Add(2 * gap)},
		{Kind: KindToken, Clock: 0.3, Index: 2, At: start.Add(3 * gap)},
		{Kind: KindCompletion, Clock: 0.3, TTFT: 0.1, TPOT: 0.1, E2E: 0.3, SLOMet: true, At: start.Add(3 * gap)},
	}
	var want []byte
	ends := make([]int, len(evs)) // body offset at which each event ends
	for i, ev := range evs {
		ev.ID, ev.Request = sub.ID(), sub.Request()
		sub.publish(ev)
		var err error
		if want, err = appendSSE(want, ev); err != nil {
			t.Fatal(err)
		}
		ends[i] = len(want)
	}
	want = append(want, doneMarker...)

	rec := newFlushRecorder()
	g.streamCompletion(rec, completionRequestFor(goldenRequest), sub)
	body, flushes := rec.result()
	if body != string(want) {
		t.Fatalf("body:\n got: %q\nwant: %q", body, want)
	}
	if last := flushes[len(flushes)-1]; last.written != len(body) {
		t.Fatalf("last flush covered %d of %d bytes", last.written, len(body))
	}
	for i, ev := range evs {
		j := 0
		for flushes[j].written < ends[i] {
			j++
		}
		sent := flushes[j].at
		if sent.Before(ev.At) {
			t.Errorf("event %d (%s) flushed %v before its deadline", i, ev.Kind, ev.At.Sub(sent))
		}
		for _, later := range evs[i+1:] {
			if later.At.After(ev.At) && !sent.Before(later.At) {
				t.Errorf("event %d (%s) held back past the next deadline: flushed %v after it",
					i, ev.Kind, sent.Sub(later.At))
				break
			}
		}
	}
}

// TestStreamPacedGolden: delivery paced against the wall clock writes
// the same bytes as free-running delivery.
func TestStreamPacedGolden(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0.2})
	rec := newFlushRecorder()
	g.ServeHTTP(rec, completionRequestFor(goldenRequest))
	body, flushes := rec.result()
	if body != goldenSSE {
		t.Errorf("SSE transcript drifted:\n got: %q\nwant: %q", body, goldenSSE)
	}
	if len(flushes) < 2 {
		t.Errorf("%d flushes for a paced stream, want one per delivery deadline", len(flushes))
	}
}

// TestSubscriberCloseRecyclesRing: once the consumer closes, late
// publishes are no-ops even though the ring has gone back to the pool,
// a producer blocked on a full Block-mode ring is released, and the
// next subscriber starts from a zeroed ring.
func TestSubscriberCloseRecyclesRing(t *testing.T) {
	for _, policy := range []OverflowPolicy{DropOldest, Block} {
		sub := newSubscriber("old", 1, 2, policy)
		sub.publish(Event{Kind: KindAdmission, ID: "old"})
		sub.publish(Event{Kind: KindFirstToken, ID: "old"})
		blocked := make(chan struct{})
		go func() {
			defer close(blocked)
			sub.publish(Event{Kind: KindToken, ID: "old"}) // waits for space under Block
		}()
		sub.Close()
		select {
		case <-blocked:
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: producer still blocked after Close", policy)
		}
		sub.publish(Event{Kind: KindToken, ID: "late"})
		sub.terminate(Event{Kind: KindError, ID: "late"})
		if _, _, ok := sub.poll(); ok {
			t.Fatalf("%v: closed subscriber still yields events", policy)
		}

		next := newSubscriber("new", 2, 2, policy)
		for i, ev := range next.buf {
			if ev != (Event{}) {
				t.Fatalf("%v: new subscriber's ring slot %d holds %+v", policy, i, ev)
			}
		}
		if _, _, ok := next.poll(); ok {
			t.Fatalf("%v: new subscriber starts non-empty", policy)
		}
		next.Close()
	}
}
