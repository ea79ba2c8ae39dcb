package gateway

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Every SSE `data:` line is a per-kind projection of Event: exactly the
// fields its kind documents, in a fixed order, so a stream transcript is
// byte-stable and golden-testable. Every payload leads with
// type/id/request/clock — the correlation spine a client or log scraper
// keys on. The bytes are exactly what encoding/json would produce for
// the equivalent struct; sse_ref_test.go keeps that reference and pins
// the two against each other.

// doneMarker terminates an SSE stream OpenAI-style.
const doneMarker = "data: [DONE]\n\n"

// appendSSE appends one server-sent event for ev to dst: the kind as the
// event name, the payload JSON as the data line. A non-finite float or
// an unknown kind is an error, and dst comes back with its length
// unchanged. It is called per event on every stream, so it only appends
// into the caller's scratch.
//
//alisa:hotpath
func appendSSE(dst []byte, ev Event) ([]byte, error) {
	e := sseEncoder{b: dst}
	e.head(ev.Kind, ev.ID, ev.Request)
	e.float(`,"clock":`, ev.Clock)
	switch ev.Kind {
	case KindAdmission:
		e.float(`,"wait":`, ev.Wait)
		e.int(`,"input_tokens":`, ev.Input)
		e.int(`,"output_tokens":`, ev.Output)
		e.int(`,"batch":`, ev.Batch)
	case KindFirstToken:
		e.float(`,"ttft":`, ev.TTFT)
	case KindToken:
		e.int(`,"index":`, ev.Index)
	case KindPreemption:
		e.int(`,"generated":`, ev.Generated)
	case KindCompletion:
		e.float(`,"ttft":`, ev.TTFT)
		e.float(`,"tpot":`, ev.TPOT)
		e.float(`,"e2e":`, ev.E2E)
		e.bool(`,"slo_met":`, ev.SLOMet)
		e.int(`,"preemptions":`, ev.Preemptions)
	case KindError:
		e.b = append(e.b, `,"error":`...)
		e.string(ev.Err)
	default:
		return dst, fmt.Errorf("gateway: unknown event kind %q", ev.Kind)
	}
	if e.bad {
		return dst, fmt.Errorf("gateway: %s event %q carries a NaN or infinite float", ev.Kind, ev.ID)
	}
	return e.tail(), nil
}

// appendDropMarker appends the `dropped` event that surfaces a DropOldest
// overflow to the client: n events were lost ahead of whatever follows.
func appendDropMarker(dst []byte, id string, request, n int) []byte {
	e := sseEncoder{b: dst}
	e.head("dropped", id, request)
	e.int(`,"dropped":`, n)
	return e.tail()
}

// sseEncoder appends one event's JSON fields in order. A non-finite
// float latches bad instead of being written; appendSSE then discards
// the whole event.
type sseEncoder struct {
	b   []byte
	bad bool
}

// head opens the event: its name line and the payload's type/id/request
// spine.
func (e *sseEncoder) head(kind Kind, id string, request int) {
	e.b = append(e.b, "event: "...)
	e.b = append(e.b, kind...)
	e.b = append(e.b, "\ndata: {\"type\":"...)
	e.string(string(kind))
	e.b = append(e.b, `,"id":`...)
	e.string(id)
	e.int(`,"request":`, request)
}

// tail closes the payload and the event.
func (e *sseEncoder) tail() []byte { return append(e.b, "}\n\n"...) }

func (e *sseEncoder) int(key string, v int) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

func (e *sseEncoder) bool(key string, v bool) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendBool(e.b, v)
}

// float writes f by encoding/json's rule: shortest round-trip digits,
// plain notation unless |f| < 1e-6 or |f| ≥ 1e21, exponents without a
// leading zero (1e-7, not 1e-07).
func (e *sseEncoder) float(key string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	e.b = append(e.b, key...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// string writes s as a JSON string. Printable ASCII that needs no
// escaping under encoding/json's HTML-safe rules is copied as is;
// anything else goes through json.Marshal, so escapes, U+2028/U+2029 and
// invalid UTF-8 come out exactly as encoding/json writes them.
func (e *sseEncoder) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, quoted...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
