package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"

	"slidingsample/internal/stats"
)

// A shared machine's speed drifts. On the 2-vCPU virtual machine this
// benchmark was built on, one workload's ingest rate moved by a factor of
// two between runs a minute apart, and a JSON decode loop and a loopback
// HTTP exchange drifted with it while a hash loop did not: the drift is in
// the memory system and the hypervisor's scheduling, which serving work
// leans on. Every run therefore probes the host between its timed steps,
// with swserve idle, by timing probeRequests ingest round trips to a
// reference server, and scales its time metrics by the median probe to a
// host whose probe takes refProbeUs. The raw figures and the probe are
// printed with every run.
//
// The reference server is a fixed, standard-library-only stand-in for
// swserve's durable ingest path: a child process that decodes each JSON
// batch, keeps the last window of values in a ring, appends the batch to a
// log file and answers with a JSON count. It is part of the benchmark, not
// of the program under test, so no change to the program moves it.

const (
	probeRequests = 20
	refProbeUs    = 300.
)

// refRequest mirrors the ingest body's shape.
type refRequest struct {
	Values  []string  `json:"values"`
	Weights []float64 `json:"weights"`
}

type refResponse struct {
	Ingested int    `json:"ingested"`
	Count    uint64 `json:"count"`
}

// runRefServer serves the reference until the process is killed.
func runRefServer(addr, logPath string) error {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer log.Close()
	ring := make([]string, namedN)
	var (
		mu    sync.Mutex
		count uint64
	)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		var req refRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil || len(req.Values) != len(req.Weights) {
			http.Error(w, "bad batch", http.StatusBadRequest)
			return
		}
		line, err := json.Marshal(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		mu.Lock()
		_, err = log.Write(append(line, '\n'))
		for _, v := range req.Values {
			ring[count%uint64(len(ring))] = v
			count++
		}
		resp := refResponse{Ingested: len(req.Values), Count: count}
		mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		b, _ := json.Marshal(resp)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	})
	srv := &http.Server{Addr: addr, Handler: mux}
	fmt.Fprintln(os.Stderr, "refserver: serving on", addr)
	return srv.ListenAndServe()
}

// hostProbe is a running reference server and the probes taken so far.
type hostProbe struct {
	srv   *server
	c     *client
	body  []byte
	times []float64 // us per request, one per probe
}

func startHostProbe(logPath string, body []byte) (*hostProbe, error) {
	s, err := startRefServer(logPath)
	if err != nil {
		return nil, err
	}
	return &hostProbe{srv: s, c: newClient(s.base), body: body}, nil
}

// probe times probeRequests ingest round trips.
func (h *hostProbe) probe() error {
	t0 := time.Now()
	for i := 0; i < probeRequests; i++ {
		status, _, err := h.c.do(http.MethodPost, "/ingest", h.body, 0)
		if err != nil {
			return fmt.Errorf("host probe: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("host probe: status %d", status)
		}
	}
	h.times = append(h.times, us(time.Since(t0))/probeRequests)
	return nil
}

// slowdown is the median probe over refProbeUs: a run's time metrics are
// divided by it, its rates multiplied.
func (h *hostProbe) slowdown() float64 { return stats.Median(h.times) / refProbeUs }

func (h *hostProbe) close() {
	h.c.close()
	h.srv.stop(syscall.SIGKILL)
}
