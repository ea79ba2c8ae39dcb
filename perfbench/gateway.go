package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	alisa "repro"
	"repro/internal/gateway"
)

// The gateway workload serves live SSE streams through the HTTP gateway
// at time scale 0, in process, behind a loopback TCP listener. The
// engine matches the alisa-gateway defaults, except for a metrics
// window large enough to hold every completion of a run (so /v1/metrics
// can be checked against the client's count) and streaming metrics
// from the first request (the long-running-session mode).
const (
	gatewayInput  = 128
	gatewayOutput = 16
	gatewayWindow = 1 << 17
)

var gatewayBody = []byte(fmt.Sprintf(`{"input_tokens":%d,"max_tokens":%d,"stream":true}`, gatewayInput, gatewayOutput))

// gatewaySize returns one pass's closed-loop request count and
// open-loop duration.
func gatewaySize(cfg config) (closed int, open time.Duration) {
	if cfg.smoke {
		return 8, 5 * time.Millisecond
	}
	return 4000, time.Second
}

// liveGateway is one started gateway with its listener and server.
type liveGateway struct {
	gw  *gateway.Gateway
	srv *http.Server
	url string
	// served is closed when the server's Serve call returns.
	served chan struct{}
}

func startGateway(client *http.Client) (*liveGateway, error) {
	eng, err := alisa.New("opt-6.7b",
		alisa.WithScheduler("alisa"), alisa.WithKVSparsity(0.8), alisa.WithKVBits(8),
		alisa.WithMaxBatch(8), alisa.WithSLO(10, 0.5),
		alisa.WithMetricsWindow(gatewayWindow), alisa.WithExactMetrics(-1))
	if err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{Engine: eng, TimeScale: 0})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Abort()
		return nil, err
	}
	g := &liveGateway{gw: gw, srv: &http.Server{Handler: gw}, url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(g.served)
		_ = g.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(g.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return g, nil
			}
		}
		if time.Now().After(deadline) {
			_, _ = g.stop()
			return nil, fmt.Errorf("gateway never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the gateway, shuts the HTTP server down and waits for its
// goroutine to exit. It returns the session's final result.
func (g *liveGateway) stop() (*alisa.ServeResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := g.gw.Drain(ctx)
	if ctx.Err() != nil {
		g.gw.Abort()
	}
	if serr := g.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	<-g.served
	return res, err
}

// streamRecord is one SSE request as the client saw it. Times are wall
// clock; due is when the request was due to be sent.
type streamRecord struct {
	due, send, headers, first, end time.Time
	status                         int
	tokens, events, reads, dropped int
	bytes                          int
	completion, done               bool
	err                            error
}

// ok reports whether the stream is what the gateway promises: 200, a
// first_token event, exactly gatewayOutput token events, a completion
// event, [DONE], and no dropped-events marker.
func (r *streamRecord) ok() bool {
	return r.err == nil && r.status == http.StatusOK && !r.first.IsZero() &&
		r.tokens == gatewayOutput && r.completion && r.done && r.dropped == 0
}

func (r *streamRecord) describe() string {
	return fmt.Sprintf("status=%d first_token=%t tokens=%d completion=%t done=%t dropped=%d err=%v",
		r.status, !r.first.IsZero(), r.tokens, r.completion, r.done, r.dropped, r.err)
}

// countingReader counts the Read calls and bytes of a response body.
type countingReader struct {
	r            io.Reader
	reads, bytes int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.reads++
		c.bytes += n
	}
	return n, err
}

// stream sends one completion request and reads its SSE stream to the
// end, filling rec.
func stream(client *http.Client, url string, rec *streamRecord) {
	rec.send = time.Now()
	resp, err := client.Post(url+"/v1/completions", "application/json", bytes.NewReader(gatewayBody))
	if err != nil {
		rec.err = err
		return
	}
	defer resp.Body.Close()
	rec.headers = time.Now()
	rec.status = resp.StatusCode
	body := &countingReader{r: resp.Body}
	br := bufio.NewReader(body)
	for {
		line, err := br.ReadSlice('\n')
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			rec.events++
			switch kind := string(bytes.TrimSpace(line[len("event: "):])); kind {
			case "first_token":
				if rec.first.IsZero() {
					rec.first = time.Now()
				}
			case "token":
				rec.tokens++
			case "completion":
				rec.completion = true
			case "dropped":
				rec.dropped++
			}
		case bytes.Equal(line, []byte("data: [DONE]\n")):
			rec.events++
			rec.done = true
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				rec.err = err
			}
			break
		}
	}
	rec.end = time.Now()
	rec.reads, rec.bytes = body.reads, body.bytes
}

// closedPhase sends n requests from conns connections, each sending its
// next request as soon as the previous stream ends.
func closedPhase(client *http.Client, url string, conns, n int) []streamRecord {
	recs := make([]streamRecord, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				recs[i].due = time.Now()
				stream(client, url, &recs[i])
			}
		}()
	}
	wg.Wait()
	return recs
}

// openSchedule returns Poisson due offsets at rate req/s covering d.
func openSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// openPhase sends one request per due offset from conns connections.
// A request is due at start+offset whether or not a connection is free
// then; its latencies are measured from that due time, so a stall
// charges every request queued behind it.
func openPhase(client *http.Client, url string, conns int, offsets []time.Duration) []streamRecord {
	recs := make([]streamRecord, len(offsets))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				recs[i].due = start.Add(offsets[i])
				if d := time.Until(recs[i].due); d > 0 {
					time.Sleep(d)
				}
				stream(client, url, &recs[i])
			}
		}()
	}
	wg.Wait()
	return recs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runGateway(cfg config) (*report, error) {
	rep := newReport()
	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var g *liveGateway
	repeats, minTime := setupRepeats(cfg)
	stopPrevious := func() error {
		if g == nil {
			return nil
		}
		_, err := g.stop()
		g = nil
		transport.CloseIdleConnections()
		if err != nil {
			return fmt.Errorf("stopping a set-up gateway: %w", err)
		}
		return nil
	}
	setup, err := timeSetup(repeats, minTime, stopPrevious, func() error {
		var err error
		g, err = startGateway(client)
		return err
	})
	if err != nil {
		if g != nil {
			_, _ = g.stop()
		}
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	closedN, openDur := gatewaySize(cfg)
	rng := rand.New(rand.NewSource(cfg.seed))
	passes := startPasses(closedN)
	defer passes.stop()
	var ttft passLatency
	var headers, first, streamMs, late, passSelf []float64
	var events, reads, byteCount, dropped, sent, completed int
	var firstBad string
	u0, s0 := cpuTimes()
	err = repeat(time.Duration(cfg.seconds*float64(time.Second)), 3, rep, func(i int) error {
		traced := tracedPass(cfg, i)
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		offsets := openSchedule(rng, cfg.gatewayRate, openDur)
		before := readAllocs()
		start := time.Now()
		closed := closedPhase(client, g.url, conns, closedN)
		passes.record(traced, time.Since(start).Seconds(), before)
		open := openPhase(client, g.url, conns, offsets)
		end := time.Now()
		var openTTFT []float64
		for _, r := range open {
			if r.ok() {
				openTTFT = append(openTTFT, ms(r.first.Sub(r.due)))
			}
		}
		ttft.add(openTTFT)

		root := tr.add("gateway.pass", start, end, -1, -1)
		for phase, recs := range [][]streamRecord{closed, open} {
			rep.attempted += len(recs)
			for j := range recs {
				r, id := &recs[j], sent
				sent++
				if !r.ok() {
					rep.failed++
					if firstBad == "" {
						firstBad = fmt.Sprintf("pass %d phase %d request %d: %s", i, phase, j, r.describe())
					}
					continue
				}
				completed++
				events += r.events
				reads += r.reads
				byteCount += r.bytes
				dropped += r.dropped
				if !traced {
					continue
				}
				req := tr.add("gateway.request", r.send, r.end, root, id)
				tr.add("gateway.headers", r.send, r.headers, req, id)
				tr.add("gateway.first_token", r.headers, r.first, req, id)
				tr.add("gateway.stream", r.first, r.end, req, id)
				if phase == 1 {
					late = append(late, ms(r.send.Sub(r.due)))
				}
			}
		}
		if traced {
			spans := tr.byName()
			headers = append(headers, scaled(spans["gateway.headers"], 1e3)...)
			first = append(first, scaled(spans["gateway.first_token"], 1e3)...)
			streamMs = append(streamMs, scaled(spans["gateway.stream"], 1e3)...)
			passSelf = append(passSelf, spans["gateway.pass"][0])
		}
		return nil
	})
	u1, s1 := cpuTimes()
	if err != nil {
		_, _ = g.stop()
		return nil, err
	}
	rep.check(rep.failed == 0, "gateway: %d of %d streams broke; first: %s", rep.failed, sent, firstBad)
	passes.passSelf = passSelf
	passes.fill(rep)

	ttft.fill(rep)
	rep.details["requests"] = map[string]int{"sent": sent, "completed": completed}

	count, err := metricsCount(client, g.url)
	rep.check(err == nil, "gateway: GET /v1/metrics: %v", err)
	rep.check(err != nil || count == min(completed, gatewayWindow),
		"gateway: /v1/metrics count %d, want %d completed", count, min(completed, gatewayWindow))
	res, err := g.stop()
	rep.check(err == nil, "gateway: drain: %v", err)
	if err == nil {
		rep.check(res.Completed == sent, "gateway: drained session completed %d of %d sent", res.Completed, sent)
		rep.e2e["sim_goodput_tok_s"] = res.Goodput
		rep.e2e["sim_ttft_p99_s"] = res.TTFT.P99
	}

	if cfg.trace {
		h, f, s := summarize(headers), summarize(first), summarize(streamMs)
		rep.layers["gateway.headers_ms"] = h.P50
		rep.layers["gateway.first_token_ms"] = f.P50
		rep.layers["gateway.stream_ms"] = s.P50
		rep.layers["gateway.send_late_p99_ms"] = summarize(late).P99
		rep.details["gateway_ms"] = map[string]summary{"headers": h, "first_token": f, "stream": s}
		runProbes(rep.layers)
	}
	if completed > 0 {
		rep.layers["gateway.events_per_read"] = float64(events) / float64(reads)
		rep.layers["gateway.bytes_per_req"] = float64(byteCount) / float64(completed)
		rep.layers["proc.user_cpu_us_per_req"] = float64((u1 - u0).Microseconds()) / float64(sent)
		rep.layers["proc.sys_cpu_us_per_req"] = float64((s1 - s0).Microseconds()) / float64(sent)
	}
	rep.layers["gateway.dropped_events"] = float64(dropped)
	if err := headlinePins(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// metricsCount reads the rolling window's completion count from
// GET /v1/metrics.
func metricsCount(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url + "/v1/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Window struct {
			Count int `json:"count"`
		} `json:"window"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	return body.Window.Count, nil
}
