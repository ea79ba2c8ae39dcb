package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// The reference SSE encoder: the per-kind wire structs marshalled by
// encoding/json, as the gateway encoded events before appendSSE. It is
// the specification appendSSE is pinned against byte for byte.

type wireAdmission struct {
	Type    Kind    `json:"type"`
	ID      string  `json:"id"`
	Request int     `json:"request"`
	Clock   float64 `json:"clock"`
	Wait    float64 `json:"wait"`
	Input   int     `json:"input_tokens"`
	Output  int     `json:"output_tokens"`
	Batch   int     `json:"batch"`
}

type wireFirstToken struct {
	Type    Kind    `json:"type"`
	ID      string  `json:"id"`
	Request int     `json:"request"`
	Clock   float64 `json:"clock"`
	TTFT    float64 `json:"ttft"`
}

type wireToken struct {
	Type    Kind    `json:"type"`
	ID      string  `json:"id"`
	Request int     `json:"request"`
	Clock   float64 `json:"clock"`
	Index   int     `json:"index"`
}

type wirePreemption struct {
	Type      Kind    `json:"type"`
	ID        string  `json:"id"`
	Request   int     `json:"request"`
	Clock     float64 `json:"clock"`
	Generated int     `json:"generated"`
}

type wireCompletion struct {
	Type        Kind    `json:"type"`
	ID          string  `json:"id"`
	Request     int     `json:"request"`
	Clock       float64 `json:"clock"`
	TTFT        float64 `json:"ttft"`
	TPOT        float64 `json:"tpot"`
	E2E         float64 `json:"e2e"`
	SLOMet      bool    `json:"slo_met"`
	Preemptions int     `json:"preemptions"`
}

type wireDropped struct {
	Type    Kind   `json:"type"`
	ID      string `json:"id"`
	Request int    `json:"request"`
	Dropped int    `json:"dropped"`
}

type wireError struct {
	Type    Kind    `json:"type"`
	ID      string  `json:"id"`
	Request int     `json:"request"`
	Clock   float64 `json:"clock"`
	Error   string  `json:"error"`
}

// refSSE frames one payload: the kind as the event name, the payload
// JSON as the data line. A marshal error writes nothing.
func refSSE(kind Kind, payload any) ([]byte, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "event: %s\ndata: %s\n\n", kind, data), nil
}

// refEncode projects ev onto its kind's wire struct and frames it.
func refEncode(ev Event) ([]byte, error) {
	switch ev.Kind {
	case KindAdmission:
		return refSSE(ev.Kind, wireAdmission{Type: ev.Kind, ID: ev.ID, Request: ev.Request,
			Clock: ev.Clock, Wait: ev.Wait, Input: ev.Input, Output: ev.Output, Batch: ev.Batch})
	case KindFirstToken:
		return refSSE(ev.Kind, wireFirstToken{Type: ev.Kind, ID: ev.ID, Request: ev.Request,
			Clock: ev.Clock, TTFT: ev.TTFT})
	case KindToken:
		return refSSE(ev.Kind, wireToken{Type: ev.Kind, ID: ev.ID, Request: ev.Request,
			Clock: ev.Clock, Index: ev.Index})
	case KindPreemption:
		return refSSE(ev.Kind, wirePreemption{Type: ev.Kind, ID: ev.ID, Request: ev.Request,
			Clock: ev.Clock, Generated: ev.Generated})
	case KindCompletion:
		return refSSE(ev.Kind, wireCompletion{Type: ev.Kind, ID: ev.ID, Request: ev.Request,
			Clock: ev.Clock, TTFT: ev.TTFT, TPOT: ev.TPOT, E2E: ev.E2E,
			SLOMet: ev.SLOMet, Preemptions: ev.Preemptions})
	case KindError:
		return refSSE(ev.Kind, wireError{Type: ev.Kind, ID: ev.ID, Request: ev.Request,
			Clock: ev.Clock, Error: ev.Err})
	default:
		return nil, fmt.Errorf("gateway: unknown event kind %q", ev.Kind)
	}
}

// refDropMarker is the reference `dropped` marker.
func refDropMarker(id string, request, n int) []byte {
	b, err := refSSE("dropped", wireDropped{Type: "dropped", ID: id, Request: request, Dropped: n})
	if err != nil {
		panic(err) // no float field: cannot fail
	}
	return b
}

var allKinds = []Kind{KindAdmission, KindFirstToken, KindToken, KindPreemption, KindCompletion, KindError}

// checkEncode asserts appendSSE ≡ the reference for ev, appending behind
// a non-empty prefix so a write past the caller's bytes would show.
func checkEncode(t *testing.T, ev Event) {
	t.Helper()
	prefix := []byte("prefix|")
	want, wantErr := refEncode(ev)
	got, err := appendSSE(append([]byte(nil), prefix...), ev)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("appendSSE(%+v) error = %v, reference error = %v", ev, err, wantErr)
	}
	if err != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("appendSSE(%+v) failed with %v but wrote %q", ev, err, got[len(prefix):])
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("appendSSE(%+v):\n got: %q\nwant: %q", ev, got, append(prefix, want...))
	}
}

func checkDropMarker(t *testing.T, id string, request, n int) {
	t.Helper()
	want := refDropMarker(id, request, n)
	if got := appendDropMarker([]byte("x"), id, request, n); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("appendDropMarker(%q, %d, %d):\n got: %q\nwant: %q", id, request, n, got, want)
	}
}

var (
	encodeStrings = []string{
		"", "golden-1", "req-42", `quo"te`, `back\slash`, "<script>&amp;</script>",
		"a<b", "a>b", "a&b", "\x7f", "\x1f", "~ !",
		"ctl\x00\x01\x1f\x7f", "tab\tnewline\n", "bad\xffutf8\xfe", "\xc3", "line\u2028para\u2029",
		"héllo wörld", "emoji 🚀", "plain ASCII with spaces ~!@#$%^*()_+`{}|:;',./?",
	}
	encodeFloats = []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
		1e-7, -1e-7, 9.99e-7, 9.999999999999999e-7, 1e-6, 1e-5, 0.015131815275497834,
		0.5, 1, -1, 123456789.125, 1e20, 9.99e20, 1e21, -1e21, 1.5e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	encodeInts = []int{0, 1, -1, 42, math.MaxInt, math.MinInt}
)

// TestAppendSSEMatchesReference pins appendSSE to the encoding/json
// reference over every kind and the drop marker: hostile strings in
// every string field, edge floats in every float field, edge ints in
// every int field. NaN/±Inf make both sides fail with nothing written.
func TestAppendSSEMatchesReference(t *testing.T) {
	base := Event{ID: "base", Request: 3, Clock: 0.25, Wait: 0.125, Input: 128, Output: 16, Batch: 4,
		TTFT: 0.0625, Index: 7, Generated: 5, TPOT: 0.015, E2E: 0.5, SLOMet: true, Preemptions: 2, Err: "boom"}
	for _, kind := range allKinds {
		ev := base
		ev.Kind = kind
		checkEncode(t, ev)
		for _, s := range encodeStrings {
			e := ev
			e.ID = s
			checkEncode(t, e)
			e = ev
			e.Err = s
			checkEncode(t, e)
		}
		floatFields := []*float64{&ev.Clock, &ev.Wait, &ev.TTFT, &ev.TPOT, &ev.E2E}
		for _, p := range floatFields {
			old := *p
			for _, f := range encodeFloats {
				*p = f
				checkEncode(t, ev)
			}
			*p = old
		}
		intFields := []*int{&ev.Request, &ev.Input, &ev.Output, &ev.Batch, &ev.Index, &ev.Generated, &ev.Preemptions}
		for _, p := range intFields {
			old := *p
			for _, n := range encodeInts {
				*p = n
				checkEncode(t, ev)
			}
			*p = old
		}
		ev.SLOMet = false
		checkEncode(t, ev)
	}
	checkEncode(t, Event{Kind: "bogus", ID: "x"})
	checkEncode(t, Event{Kind: "bogus", ID: "x", Clock: math.NaN()})
	for _, s := range encodeStrings {
		for _, n := range encodeInts {
			checkDropMarker(t, s, n, n)
		}
	}
}

// FuzzSSEEncode extends the reference pin to arbitrary events and drop
// markers.
func FuzzSSEEncode(f *testing.F) {
	f.Add(uint8(0), "golden-1", "", 0, 0.015131815275497834, 0.0, 0.0, 0.0, 8, 3, 1, true)
	f.Add(uint8(4), `a"b<c>&`, "", 7, 1e-7, 9.99e-7, 1e21, -0.0, 0, 0, 0, false)
	f.Add(uint8(5), " ", "bad\xff", -1, 0.5, 0.0, 0.0, 0.0, -1, 0, 0, false)
	f.Add(uint8(2), "nan", "", 1, math.NaN(), math.Inf(1), 0.0, 0.0, 1, 1, 1, true)
	f.Fuzz(func(t *testing.T, kind uint8, id, errText string, request int, clock, a, b, c float64, i, j, k int, slo bool) {
		ev := Event{Kind: "bogus", ID: id, Request: request, Clock: clock,
			Wait: a, TTFT: a, TPOT: b, E2E: c,
			Input: i, Output: j, Batch: k, Index: i, Generated: j, Preemptions: k,
			SLOMet: slo, Err: errText}
		if int(kind) < len(allKinds) {
			ev.Kind = allKinds[kind]
		}
		checkEncode(t, ev)
		checkDropMarker(t, id, request, i)
	})
}

// TestAppendSSEAllocs pins the encoder's allocation contract: a plain
// ASCII ID encoded into warm scratch allocates nothing, for every kind.
func TestAppendSSEAllocs(t *testing.T) {
	buf := make([]byte, 0, 4096)
	for _, kind := range allKinds {
		ev := Event{Kind: kind, ID: "req-12345", Request: 12345, Clock: 1.2345678901234567,
			Wait: 1e-9, TTFT: 0.015, TPOT: 0.0150953, E2E: 0.25, Input: 128, Output: 16, Batch: 8,
			Index: 9, SLOMet: true, Err: "session canceled"}
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = appendSSE(buf[:0], ev); err != nil {
				t.Fatal(err)
			}
			buf = appendDropMarker(buf, ev.ID, ev.Request, 3)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per event into warm scratch, want 0", kind, allocs)
		}
	}
}

// BenchmarkSSEEncode encodes one 16-token stream's lifecycle (admission,
// first token, 16 tokens, completion, [DONE]) into warm scratch per op,
// against the encoding/json reference.
func BenchmarkSSEEncode(b *testing.B) {
	stream := []Event{{Kind: KindAdmission, Wait: 0.001, Input: 128, Output: 16, Batch: 8},
		{Kind: KindFirstToken, TTFT: 0.0151}}
	for i := 1; i <= 16; i++ {
		stream = append(stream, Event{Kind: KindToken, Index: i})
	}
	stream = append(stream, Event{Kind: KindCompletion, TTFT: 0.0151, TPOT: 0.0150953, E2E: 0.2567, SLOMet: true})
	for i := range stream {
		stream[i].ID, stream[i].Request, stream[i].Clock = "req-4711", 4711, 0.0151*float64(i+1)
	}
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		for b.Loop() {
			buf = buf[:0]
			for _, ev := range stream {
				buf, _ = appendSSE(buf, ev)
			}
			buf = append(buf, doneMarker...)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("reference", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for b.Loop() {
			buf.Reset()
			for _, ev := range stream {
				data, _ := refEncode(ev)
				buf.Write(data)
			}
			buf.WriteString(doneMarker)
		}
		b.SetBytes(int64(buf.Len()))
	})
}
