package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the generator's connection count: one writer and one reader,
// matching the two vCPUs the benchmark was sized on.
const conns = 2

// spanHeader carries a request id to the in-process traced server so its
// ServeHTTP span can be matched to the client span.
const spanHeader = "X-Perfbench-Span"

// client is the generator's HTTP client: keep-alive connections capped at
// conns, with every dial counted (the count checks connection reuse).
type client struct {
	hc    *http.Client
	base  string
	dials atomic.Int64
	spans atomic.Int64 // last span id handed out
}

func newClient(base string) *client {
	c := &client{base: base}
	d := &net.Dialer{Timeout: 5 * time.Second}
	c.hc = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     5 * time.Minute,
	}}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body, so the
// connection goes back to the pool. span is the id sent in spanHeader
// when tracing (0: none).
func (c *client) do(method, path string, body []byte, span int64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// phase describes one load phase: a closed-loop writer and, when
// queryRate > 0, an open-loop reader.
type phase struct {
	duration   time.Duration         // writer and reader stop issuing after this (0: the writer's maxBatches bounds both)
	maxBatches int                   // writer stops after this many attempts (0: duration bounds it)
	firstSlot  int                   // input slot of the first ingest request
	queryRate  float64               // reader requests per second
	ingestPath func(slot int) string // nil: no writer
	queryPath  func(i int) string
	spanned    bool // send span ids (traced pass)
}

// request is one timed client request.
type request struct {
	slot    int           // input slot (ingest) or query index
	path    string        // query path
	span    int64         // span id when traced
	latency time.Duration // ingest: send to response; query: due time to response
	late    time.Duration // query: send time minus due time
	at      time.Duration // completion, from the phase start
	events  int           // values acknowledged (ingest)
	ok      bool
}

type phaseResult struct {
	elapsed time.Duration
	ingest  []request
	query   []request
}

// runPhase runs the writer and the reader concurrently and returns every
// request they made.
func runPhase(c *client, in *inputs, p phase) phaseResult {
	var res phaseResult
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(p.duration)
	writerDone := make(chan struct{})
	if p.ingestPath == nil {
		close(writerDone)
	} else {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(writerDone)
			for i := 0; ; i++ {
				if p.maxBatches > 0 && i >= p.maxBatches {
					return
				}
				if p.duration > 0 && !time.Now().Before(end) {
					return
				}
				slot := p.firstSlot + i
				b := in.slot(slot)
				var span int64
				if p.spanned {
					span = c.spans.Add(1)
				}
				t0 := time.Now()
				status, _, err := c.do(http.MethodPost, p.ingestPath(slot), b.body, span)
				t1 := time.Now()
				r := request{slot: slot, span: span, latency: t1.Sub(t0), at: t1.Sub(start), ok: err == nil && status == http.StatusOK}
				if r.ok {
					r.events = len(b.values)
				}
				res.ingest = append(res.ingest, r)
			}
		}()
	}
	if p.queryRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			period := time.Duration(float64(time.Second) / p.queryRate)
			for i := 0; ; i++ {
				due := start.Add(time.Duration(i) * period)
				if p.duration > 0 && !due.Before(end) {
					return
				}
				if p.duration == 0 {
					select {
					case <-writerDone:
						return
					default:
					}
				}
				waitUntil(due)
				var span int64
				if p.spanned {
					span = c.spans.Add(1)
				}
				sent := time.Now()
				path := p.queryPath(i)
				status, _, err := c.do(http.MethodGet, path, nil, span)
				done := time.Now()
				res.query = append(res.query, request{
					slot: i, path: path, span: span, latency: done.Sub(due), late: sent.Sub(due),
					at: done.Sub(start), ok: err == nil && status == http.StatusOK,
				})
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// spinWindow is how early the reader stops sleeping and starts polling
// the clock: a sleeping goroutine's wake-up on a virtual machine can take
// hundreds of microseconds, which would otherwise show as query latency.
const spinWindow = 300 * time.Microsecond

// waitUntil returns at t: it sleeps until shortly before, then yields in
// a loop until the clock passes t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// counts returns attempts and failures over both request streams.
func (r phaseResult) counts() (attempted, failed int64) {
	for _, q := range [][]request{r.ingest, r.query} {
		for _, x := range q {
			attempted++
			if !x.ok {
				failed++
			}
		}
	}
	return attempted, failed
}

// ackedEvents is the number of values acknowledged by the writer.
func (r phaseResult) ackedEvents() int64 {
	var n int64
	for _, x := range r.ingest {
		n += int64(x.events)
	}
	return n
}

// latencies returns the ms latencies of the successful requests.
func latencies(rs []request) []float64 {
	out := make([]float64, 0, len(rs))
	for _, x := range rs {
		if x.ok {
			out = append(out, ms(x.latency))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// roundTime is the length of one measured round; each round is preceded by
// a host probe (see refserver.go).
const roundTime = 500 * time.Millisecond

// round is one measured round of load.
type round struct {
	phaseResult
	cpuS float64 // server CPU seconds the round took
}

// runRounds runs the load p describes in rounds of roundTime until total
// has passed, probing the host before each round. The writer's input slots
// continue from round to round.
func runRounds(c *client, in *inputs, s *server, host *hostProbe, p phase, total time.Duration) ([]round, error) {
	var rounds []round
	for start := time.Now(); time.Since(start) < total; {
		if err := host.probe(); err != nil {
			return nil, err
		}
		cpu0, err := s.cpuSeconds()
		if err != nil {
			return nil, err
		}
		p.duration = roundTime
		res := runPhase(c, in, p)
		cpu1, err := s.cpuSeconds()
		if err != nil {
			return nil, err
		}
		p.firstSlot += len(res.ingest)
		rounds = append(rounds, round{res, cpu1 - cpu0})
	}
	return rounds, nil
}
