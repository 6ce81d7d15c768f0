package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"slidingsample/internal/serve"
	"slidingsample/internal/stats"
)

// The correctness gates compare the server under test with an in-process
// twin: a serve.Server holding the same spec at the same seed, fed the
// same acknowledged batches in the same order. Responses are
// byte-deterministic per seed and admission order (package serve's
// contract), so any difference is a wrong answer.

// errGate marks a wrong answer: the run completes and reports correct
// false instead of failing outright.
var errGate = errors.New("correctness gate")

// requester sends one request to a server and returns status and body.
type requester func(method, path string, body []byte) (int, []byte, error)

func clientRequester(c *client) requester {
	return func(method, path string, body []byte) (int, []byte, error) { return c.do(method, path, body, 0) }
}

func handlerRequester(h http.Handler) requester {
	return func(method, path string, body []byte) (int, []byte, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// wordsEvery is the twin's checkpoint stride for sampler_words: the
// sampler's footprint is read every wordsEvery batches of the replay and
// the median reported, so the metric is the workload's typical footprint
// rather than one draw of the window's final random state.
const wordsEvery = 64

// namedTwin registers spec under samplerName in a fresh in-process server
// and ingests the given batches in order. It returns the server and the
// median of the sampler's words over checkpoints of the replay.
func namedTwin(spec serve.Spec, in *inputs, slots []int) (*serve.Server, float64, error) {
	s := serve.NewServer()
	inst, err := s.Register(samplerName, spec)
	if err != nil {
		return nil, 0, err
	}
	var words []float64
	for i, slot := range slots {
		b := in.slot(slot)
		if err := ingestRetry(inst, b); err != nil {
			s.Close()
			return nil, 0, err
		}
		if (i+1)%wordsEvery == 0 {
			_, _, w, _ := inst.Stats()
			words = append(words, float64(w))
		}
	}
	return s, stats.Median(words), nil
}

// ingestRetry admits one batch, waiting out staging backpressure.
func ingestRetry(inst *serve.Instance, b *batch) error {
	for {
		_, err := inst.Ingest(b.values, nil, b.weights)
		if !errors.Is(err, serve.ErrOverloaded) {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkNamed compares the final bodies of the reads byte for byte and the
// count and words of GET /samplers.
func checkNamed(sut, twin requester, reads []string) error {
	for _, path := range reads {
		if err := sameBody(sut, twin, path); err != nil {
			return err
		}
	}
	a, err := samplerInfo(sut)
	if err != nil {
		return err
	}
	b, err := samplerInfo(twin)
	if err != nil {
		return err
	}
	if a.Count != b.Count || a.Words != b.Words {
		return fmt.Errorf("%w: /samplers count %d words %d, twin count %d words %d", errGate, a.Count, a.Words, b.Count, b.Words)
	}
	return nil
}

func sameBody(sut, twin requester, path string) error {
	sa, ba, err := sut(http.MethodGet, path, nil)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	sb, bb, err := twin(http.MethodGet, path, nil)
	if err != nil {
		return fmt.Errorf("twin GET %s: %w", path, err)
	}
	if sa != http.StatusOK || sb != http.StatusOK || !bytes.Equal(ba, bb) {
		return fmt.Errorf("%w: GET %s answered %d %q, twin %d %q", errGate, path, sa, clip(ba), sb, clip(bb))
	}
	return nil
}

func samplerInfo(r requester) (serve.SamplerInfo, error) {
	status, body, err := r(http.MethodGet, "/samplers", nil)
	if err != nil {
		return serve.SamplerInfo{}, err
	}
	if status != http.StatusOK {
		return serve.SamplerInfo{}, fmt.Errorf("GET /samplers: status %d", status)
	}
	var infos []serve.SamplerInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return serve.SamplerInfo{}, fmt.Errorf("GET /samplers: %w", err)
	}
	for _, info := range infos {
		if info.Name == samplerName {
			return info, nil
		}
	}
	return serve.SamplerInfo{}, fmt.Errorf("%w: GET /samplers lists no %q", errGate, samplerName)
}

func clip(b []byte) string {
	if len(b) > 160 {
		return string(b[:160]) + "…"
	}
	return string(b)
}
