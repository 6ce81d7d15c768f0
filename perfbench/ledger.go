package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"slidingsample/internal/serve"
	"slidingsample/internal/stats"
	"slidingsample/internal/substrate"
)

// The layer ledger (-trace 1). Every span is taken in this file around a
// call into one layer's public functions, on the workloads' own payloads;
// the program itself carries no instrumentation. Rows are named by the
// module and function they time:
//
//	http            client span minus the Server.ServeHTTP span, in-process
//	                loopback server, the named mix and (http.tenant_*) the
//	                tenant mix
//	serve.handler   Server.ServeHTTP on pre-built requests (no network)
//	serve.decode    encoding/json into serve.IngestRequest / serve.Record,
//	                as the handler and the WAL replay decode them
//	serve.ingest    Instance.Ingest (admission), plain and durable
//	serve.wal       the durable-minus-plain admission difference, WAL bytes
//	serve.applier   Instance.Weight right after Ingest minus on a quiet
//	                instance (the substrate serves no Size oracle)
//	parallel        substrate sharded-weighted-wor ObserveWeightedBatch+Barrier, Sample
//	weighted        substrate weighted-wor ObserveWeightedBatch, Sample
//	serve.query     Instance.Sample / Instance.Weight; serve.encode: json.Marshal
//	serve.fabric    Fabric.Ingest (existing, first arrival), Fabric.Sample
//	snap, serve.*   Instance.Snapshot, RestoreInstance, StateDir.WriteSnapshot,
//	                StateDir.Recover
//	residual        time the rows do not explain, taken between rows
//	                measured side by side
//
// Every traced run measures every row; only accept_ratio, the reader's
// lateness and the recovery rows depend on the workload that ran. The rows
// are raw times, not scaled by the host probe: residuals and overheads are
// taken between rows measured side by side within one run.

type ledgerResult struct {
	m       metrics
	gateErr error
}

// Ledger sizes: rounds of ops per timed row (the median round is
// reported) and the fixed prefix that deterministic counts are taken on.
const (
	rounds       = 7
	perRound     = 100
	countBatches = 400   // named batches behind serve.words, snap bytes, WAL bytes
	allocCalls   = 1000  // calls per allocation count
	fabricFill   = 20000 // tenant batches a fabric takes before its rows are timed
	httpPairs    = 4     // untraced+traced in-process HTTP pass pairs per mix
	httpPassTime = 500 * time.Millisecond
)

// deterministicCounts are compared exactly: twice within a run, and
// against the record of an earlier run of the same code and seed.
var deterministicCounts = []string{
	"serve.handler.ingest_allocs",
	"serve.decode.allocs_per_batch",
	"serve.decode.allocs_per_batch16",
	"serve.ingest.allocs_per_batch",
	"serve.wal.bytes_per_event",
	"snap.snapshot_bytes",
	"serve.words",
	"serve.max_words",
	"http.conns_opened",
	"serve.fabric.tenants_live",
}

func runLedger(cfg config, runDir string, w *workloadRun) (ledgerResult, error) {
	lr := ledgerResult{m: metrics{}}
	m := lr.m
	dir := filepath.Join(runDir, "ledger")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return lr, err
	}
	// The recovery rows run first, before the ledger's inputs exist: a
	// collector marking a large live heap would slow the in-process replay
	// and skew its comparison with the child's.
	runtime.GC()
	if err := recoveryRows(m, cfg, w, filepath.Join(dir, "recovery")); err != nil {
		return lr, err
	}
	named := namedInputs(cfg.seed)
	tenants := tenantInputs(cfg.seed)

	// Deterministic counts, twice from fresh state.
	var passes [2]metrics
	for p := range passes {
		c, err := countRows(cfg, named, tenants, filepath.Join(dir, fmt.Sprintf("counts-%d", p)))
		if err != nil {
			return lr, err
		}
		passes[p] = c
	}
	for _, name := range deterministicCounts {
		if name == "http.conns_opened" {
			continue // measured by the HTTP pass below
		}
		a, b := passes[0][name], passes[1][name]
		if a.Value != b.Value {
			lr.gateErr = fmt.Errorf("%w: count %s differs between two passes of one run: %v vs %v", errGate, name, a.Value, b.Value)
		}
		m[name] = a
	}

	for _, mix := range []string{"named", "tenant"} {
		if err := httpRows(m, cfg, mix, named, tenants, filepath.Join(dir, "http-"+mix)); err != nil {
			return lr, err
		}
	}
	if got := m["http.conns_opened"].Value; got != conns && lr.gateErr == nil {
		lr.gateErr = fmt.Errorf("%w: keep-alive broken: the traced server accepted %v connections from %d clients", errGate, got, conns)
	}
	for _, rows := range []func() error{
		func() error { return namedIngestRows(m, cfg, named, filepath.Join(dir, "ingest")) },
		func() error { return tenantIngestRows(m, cfg, tenants) },
		func() error { return queryRows(m, cfg, named, filepath.Join(dir, "query")) },
		func() error { return walRecordRow(m, cfg, named, filepath.Join(dir, "wal")) },
		func() error { return substrateRows(m, cfg, named) },
		func() error { return fabricRows(m, cfg, tenants) },
		func() error { return durabilityRows(m, cfg, named, filepath.Join(dir, "durability")) },
	} {
		if err := rows(); err != nil {
			return lr, err
		}
	}
	m.set("serve.ingest.accept_ratio", w.acceptRatio, "ratio")
	m.set("generator.query_late_ms", w.queryLateP90, "ms")

	if lr.gateErr == nil {
		lr.gateErr = compareRecordedCounts(cfg, m)
	}
	return lr, nil
}

// timed runs rounds of n calls of f and returns the median round's
// per-call duration. f gets a running call index.
func timed(n int, f func(i int) error) (time.Duration, error) {
	per := make([]float64, 0, rounds)
	i := 0
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			if err := f(i); err != nil {
				return 0, err
			}
			i++
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return time.Duration(stats.Median(per)), nil
}

// allocsPer counts heap allocations per call of f over n calls with the
// collector off, so sync.Pool contents survive and the count repeats.
func allocsPer(n int, f func(i int) error) (float64, error) {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	if err := f(0); err != nil { // warm pools and caches
		return 0, err
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 1; i <= n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64((b.Mallocs - a.Mallocs) / uint64(n)), nil
}

// ingestQuiet admits one batch and waits until the applier has applied
// it, so each call leaves the instance in the same quiet state.
func ingestQuiet(inst *serve.Instance, b *batch) error {
	if err := ingestRetry(inst, b); err != nil {
		return err
	}
	_, err := inst.Weight(nil)
	return err
}

func newNamedInstance(spec serve.Spec, sd *serve.StateDir) (*serve.Instance, error) {
	inst, err := serve.Build(spec)
	if err != nil {
		return nil, err
	}
	if sd != nil {
		if err := sd.Enable(samplerName, inst); err != nil {
			inst.Close()
			return nil, err
		}
	}
	return inst, nil
}

// countRows measures the deterministic counts from fresh state.
func countRows(cfg config, named, tenants *inputs, dir string) (metrics, error) {
	m := metrics{}
	spec := namedSpec(cfg.seed)
	sd, err := serve.OpenStateDir(dir)
	if err != nil {
		return nil, err
	}
	durable, err := newNamedInstance(spec, sd)
	if err != nil {
		return nil, err
	}
	defer durable.Close()
	for i := 0; i < countBatches; i++ {
		if err := ingestQuiet(durable, named.slot(i)); err != nil {
			return nil, err
		}
	}
	st, err := os.Stat(filepath.Join(dir, samplerName+".wal"))
	if err != nil {
		return nil, err
	}
	m.set("serve.wal.bytes_per_event", float64(st.Size())/float64(countBatches*namedBatch), "B")
	_, _, words, maxWords := durable.Stats()
	m.set("serve.words", float64(words), "words")
	m.set("serve.max_words", float64(maxWords), "words")
	var buf bytes.Buffer
	if err := durable.Snapshot(&buf); err != nil {
		return nil, err
	}
	m.set("snap.snapshot_bytes", float64(buf.Len()), "B")

	// Allocation counts, each on its own fresh target.
	plain, err := newNamedInstance(spec, nil)
	if err != nil {
		return nil, err
	}
	defer plain.Close()
	waitOnly, err := allocsPer(allocCalls, func(int) error { _, err := plain.Weight(nil); return err })
	if err != nil {
		return nil, err
	}
	both, err := allocsPer(allocCalls, func(i int) error { return ingestQuiet(plain, named.slot(i)) })
	if err != nil {
		return nil, err
	}
	m.set("serve.ingest.allocs_per_batch", both-waitOnly, "count")

	srv, err := durableServer(spec, filepath.Join(dir, "handler"))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	inst, _ := srv.Get(samplerName)
	h, err := allocsPer(allocCalls, func(i int) error {
		if err := serveOK(srv, http.MethodPost, "/ingest/"+samplerName, named.slot(i).body); err != nil {
			return err
		}
		_, err := inst.Weight(nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("serve.handler.ingest_allocs", h-waitOnly, "count")

	for _, c := range []struct {
		name string
		in   *inputs
	}{{"serve.decode.allocs_per_batch", named}, {"serve.decode.allocs_per_batch16", tenants}} {
		a, err := allocsPer(allocCalls, func(i int) error { _, err := decodeBody(c.in.slot(i).body); return err })
		if err != nil {
			return nil, err
		}
		m.set(c.name, a, "count")
	}

	f, err := serve.NewFabric(tenantSpec(cfg.seed), tenantBudget)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	for i := 0; i < fabricFill; i++ {
		b := tenants.slot(i)
		if _, err := f.Ingest(tenantID(tenants.tenantOf(i)), b.values, nil, b.weights); err != nil {
			return nil, err
		}
	}
	m.set("serve.fabric.tenants_live", float64(f.Tenants()), "count")
	return m, nil
}

// decodeBody decodes an ingest body as the JSON handler does: unknown
// fields refused, a trailing second value refused.
func decodeBody(body []byte) (serve.IngestRequest, error) {
	var req serve.IngestRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return req, fmt.Errorf("trailing data after the JSON object")
	}
	return req, nil
}

func durableServer(spec serve.Spec, dir string) (*serve.Server, error) {
	sd, err := serve.OpenStateDir(dir)
	if err != nil {
		return nil, err
	}
	s := serve.NewServer()
	s.SetStateDir(sd)
	if _, err := s.Register(samplerName, spec); err != nil {
		return nil, err
	}
	return s, nil
}

func fabricServer(spec serve.Spec) (*serve.Server, error) {
	s := serve.NewServer()
	if _, err := s.RegisterFabric(fabricName, spec, tenantBudget); err != nil {
		return nil, err
	}
	return s, nil
}

// serveOK runs one in-process request and requires a 200.
func serveOK(h http.Handler, method, path string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d %s", method, path, rec.Code, clip(rec.Body.Bytes()))
	}
	return nil
}

// namedIngestPath times one named ingest request's layers in the same
// rounds: Server.ServeHTTP, the decode of the same body, admission of the
// same batch on a durable and on a plain instance, and the response
// encode. The residual is taken per round between numbers measured side
// by side, so a host that drifts during the run does not show up as
// unattributed time.
func namedIngestRows(m metrics, cfg config, named *inputs, dir string) error {
	spec := namedSpec(cfg.seed)
	srv, err := durableServer(spec, filepath.Join(dir, "handler"))
	if err != nil {
		return err
	}
	defer srv.Close()
	hInst, _ := srv.Get(samplerName)
	sd, err := serve.OpenStateDir(filepath.Join(dir, "durable"))
	if err != nil {
		return err
	}
	durable, err := newNamedInstance(spec, sd)
	if err != nil {
		return err
	}
	defer durable.Close()
	plain, err := newNamedInstance(spec, nil)
	if err != nil {
		return err
	}
	defer plain.Close()
	resp := serve.IngestResponse{Ingested: namedBatch, Count: 123456789}
	var handler, decode, admit, dAdmit, wal, encode, residual []float64
	slot := 0
	for r := 0; r < rounds; r++ {
		var h, d, a, da, e time.Duration
		for j := 0; j < perRound; j++ {
			b := named.slot(slot)
			slot++
			t0 := time.Now()
			if err := serveOK(srv, http.MethodPost, "/ingest/"+samplerName, b.body); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := decodeBody(b.body); err != nil {
				return err
			}
			t2 := time.Now()
			if _, err := durable.Ingest(b.values, nil, b.weights); err != nil {
				return err
			}
			t3 := time.Now()
			if _, err := plain.Ingest(b.values, nil, b.weights); err != nil {
				return err
			}
			t4 := time.Now()
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
			t5 := time.Now()
			h, d, da, a, e = h+t1.Sub(t0), d+t2.Sub(t1), da+t3.Sub(t2), a+t4.Sub(t3), e+t5.Sub(t4)
		}
		// Let the appliers catch up outside the timed calls, so the
		// staging queues never refuse a batch.
		for _, in := range []*serve.Instance{hInst, durable, plain} {
			if _, err := in.Weight(nil); err != nil {
				return err
			}
		}
		per := func(x time.Duration) float64 { return us(x) / perRound }
		handler, decode, admit = append(handler, per(h)), append(decode, per(d)), append(admit, per(a))
		dAdmit, wal, encode = append(dAdmit, per(da)), append(wal, per(da-a)), append(encode, per(e))
		residual = append(residual, per(h-d-da-e))
	}
	m.set("serve.handler.ingest_us", stats.Median(handler), "us")
	m.set("serve.decode.batch100_us", stats.Median(decode), "us")
	m.set("serve.ingest.admit_us", stats.Median(admit), "us")
	m.set("serve.ingest.durable_admit_us", stats.Median(dAdmit), "us")
	m.set("serve.wal.append_us", stats.Median(wal), "us")
	m.set("serve.encode.ingest_us", stats.Median(encode), "us")
	m.set("residual.ingest_us", stats.Median(residual), "us")
	return nil
}

// tenantIngestRows does the same for the tenant path: Server.ServeHTTP on
// the Zipf stream after the fill, the decode of the same
// body, Fabric.Ingest of the same batch on a twin fabric, and the encode.
func tenantIngestRows(m metrics, cfg config, tenants *inputs) error {
	spec := tenantSpec(cfg.seed)
	srv, err := fabricServer(spec)
	if err != nil {
		return err
	}
	defer srv.Close()
	f, err := serve.NewFabric(spec, tenantBudget)
	if err != nil {
		return err
	}
	defer f.Close()
	sf, _ := srv.GetFabric(fabricName)
	for i := 0; i < fabricFill; i++ {
		b := tenants.slot(i)
		for _, fab := range []*serve.Fabric{sf, f} {
			if _, err := fab.Ingest(tenantID(tenants.tenantOf(i)), b.values, nil, b.weights); err != nil {
				return err
			}
		}
	}
	resp := serve.IngestResponse{Ingested: tenantBatch, Count: 123456789}
	var handler, decode, residual []float64
	slot := fabricFill
	for r := 0; r < rounds; r++ {
		var h, d, a, e time.Duration
		for j := 0; j < perRound*10; j++ {
			b, id := tenants.slot(slot), tenantID(tenants.tenantOf(slot))
			slot++
			t0 := time.Now()
			if err := serveOK(srv, http.MethodPost, "/tenant/"+fabricName+"/"+id+"/ingest", b.body); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := decodeBody(b.body); err != nil {
				return err
			}
			t2 := time.Now()
			if _, err := f.Ingest(id, b.values, nil, b.weights); err != nil {
				return err
			}
			t3 := time.Now()
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
			t4 := time.Now()
			h, d, a, e = h+t1.Sub(t0), d+t2.Sub(t1), a+t3.Sub(t2), e+t4.Sub(t3)
		}
		per := func(x time.Duration) float64 { return us(x) / (perRound * 10) }
		handler, decode = append(handler, per(h)), append(decode, per(d))
		residual = append(residual, per(h-d-a-e))
	}
	m.set("serve.handler.tenant_ingest_us", stats.Median(handler), "us")
	m.set("serve.decode.batch16_us", stats.Median(decode), "us")
	m.set("residual.tenant_ingest_us", stats.Median(residual), "us")
	hot := "/tenant/" + fabricName + "/" + tenantID(tenants.tenantOf(0)) + "/sample"
	d, err := timed(perRound, func(int) error { return serveOK(srv, http.MethodGet, hot, nil) })
	if err != nil {
		return err
	}
	m.set("serve.handler.tenant_sample_us", us(d), "us")
	return nil
}

// walRecordRow times the JSON decode of one WAL line into serve.Record,
// as the replay decodes it.
func walRecordRow(m metrics, cfg config, named *inputs, dir string) error {
	lines, err := walLines(cfg, named, dir)
	if err != nil {
		return err
	}
	d, err := timed(perRound*10, func(i int) error {
		var rec serve.Record
		return json.Unmarshal(lines[i%len(lines)], &rec)
	})
	if err != nil {
		return err
	}
	m.set("serve.decode.wal_record_us", us(d), "us")
	return nil
}

// walLines writes a few batches through a durable instance and returns
// the WAL's record lines.
func walLines(cfg config, named *inputs, dir string) ([][]byte, error) {
	sd, err := serve.OpenStateDir(dir)
	if err != nil {
		return nil, err
	}
	inst, err := newNamedInstance(namedSpec(cfg.seed), sd)
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	for i := 0; i < 20; i++ {
		if err := ingestQuiet(inst, named.slot(i)); err != nil {
			return nil, err
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, samplerName+".wal"))
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty WAL")
	}
	return lines, nil
}

// queryRows times the applier lag and the named queries: the Instance
// methods, Server.ServeHTTP on the same paths, and the response encode.
func queryRows(m metrics, cfg config, named *inputs, dir string) error {
	srv, err := durableServer(namedSpec(cfg.seed), dir)
	if err != nil {
		return err
	}
	defer srv.Close()
	inst, _ := srv.Get(samplerName)
	// Applier lag: Weight waits for the applier to reach its admission
	// snapshot, so right after Ingest it pays the outstanding apply.
	var after, quiet []float64
	for i := 0; i < rounds*perRound/2; i++ {
		if err := ingestRetry(inst, named.slot(i)); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := inst.Weight(nil); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := inst.Weight(nil); err != nil {
			return err
		}
		after, quiet = append(after, us(t1.Sub(t0))), append(quiet, us(time.Since(t1)))
	}
	m.set("serve.applier.lag_us", stats.Median(after)-stats.Median(quiet), "us")

	for _, q := range []struct {
		name string
		f    func() error
	}{
		{"serve.query.sample_us", func() error { _, _, err := inst.Sample(nil); return err }},
		{"serve.query.weight_us", func() error { _, err := inst.Weight(nil); return err }},
		{"serve.handler.sample_us", func() error { return serveOK(srv, http.MethodGet, "/sample/"+samplerName, nil) }},
		{"serve.handler.weight_us", func() error { return serveOK(srv, http.MethodGet, "/weight/"+samplerName, nil) }},
	} {
		d, err := timed(perRound, func(int) error { return q.f() })
		if err != nil {
			return err
		}
		m.set(q.name, us(d), "us")
	}
	es, ok, err := inst.Sample(nil)
	if err != nil {
		return err
	}
	resp := serve.SampleResponse{OK: ok}
	for _, e := range es {
		resp.Sample = append(resp.Sample, serve.SampledElement{Value: e.Value, Index: e.Index, TS: e.TS})
	}
	d, err := timed(perRound*10, func(int) error { _, err := json.Marshal(resp); return err })
	if err != nil {
		return err
	}
	m.set("serve.encode.sample_us", us(d), "us")
	return nil
}

// substrateRows times the sharded and the plain weighted substrates
// directly.
func substrateRows(m metrics, cfg config, named *inputs) error {
	type weightedSampler interface {
		ObserveWeightedBatch(batch []element, weights []float64)
		Sample() ([]element, bool)
	}
	built, _, err := substrate.New(namedSpec(cfg.seed))
	if err != nil {
		return err
	}
	sharded, ok := built.(interface {
		weightedSampler
		Barrier()
		Close()
	})
	if !ok {
		return fmt.Errorf("sharded-weighted-wor lacks the weighted batch surface")
	}
	defer sharded.Close()
	elems := make([][]element, len(named.batches))
	for i := range named.batches {
		elems[i] = elements(named.batches[i].values)
	}
	const chunk = 20
	d, err := timed(1, func(i int) error {
		for j := 0; j < chunk; j++ {
			k := (i*chunk + j) % len(elems)
			sharded.ObserveWeightedBatch(elems[k], named.batches[k].weights)
		}
		sharded.Barrier()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("parallel.ingest_ns_per_event", float64(d)/(chunk*namedBatch), "ns")
	d, err = timed(perRound, func(int) error { sharded.Sample(); return nil })
	if err != nil {
		return err
	}
	m.set("parallel.sample_us", us(d), "us")

	built, _, err = substrate.New(tenantSpec(cfg.seed))
	if err != nil {
		return err
	}
	plain, ok := built.(weightedSampler)
	if !ok {
		return fmt.Errorf("weighted-wor lacks the weighted batch surface")
	}
	d, err = timed(perRound, func(i int) error {
		k := i % len(elems)
		plain.ObserveWeightedBatch(elems[k], named.batches[k].weights)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("weighted.ingest_ns_per_event", float64(d)/namedBatch, "ns")
	d, err = timed(perRound*namedBatch, func(i int) error {
		k, j := (i/namedBatch)%len(elems), i%namedBatch
		plain.ObserveWeightedBatch(elems[k][j:j+1], named.batches[k].weights[j:j+1])
		return nil
	})
	if err != nil {
		return err
	}
	m.set("weighted.ingest1_ns_per_event", float64(d), "ns")
	d, err = timed(perRound, func(int) error { plain.Sample(); return nil })
	if err != nil {
		return err
	}
	m.set("weighted.sample_us", us(d), "us")
	return nil
}

// fabricRows times Fabric.Ingest for existing tenants and first arrivals,
// Fabric.Sample, and the heap bytes per live tenant.
func fabricRows(m metrics, cfg config, tenants *inputs) error {
	spec := tenantSpec(cfg.seed)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := serve.NewFabric(spec, tenantBudget)
	if err != nil {
		return err
	}
	defer f.Close()
	for i := 0; i < fabricFill; i++ {
		b := tenants.slot(i)
		if _, err := f.Ingest(tenantID(tenants.tenantOf(i)), b.values, nil, b.weights); err != nil {
			return err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := f.Tenants()
	m.set("serve.fabric.bytes_per_tenant", float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(live), "B")

	// Existing tenants: the ids the fill created, round robin.
	ids := make([]string, 0, live)
	seen := map[int32]bool{}
	for i := 0; i < fabricFill && len(ids) < live; i++ {
		if r := tenants.tenantOf(i); !seen[r] {
			seen[r] = true
			ids = append(ids, tenantID(r))
		}
	}
	d, err := timed(perRound*10, func(i int) error {
		b := tenants.slot(i)
		_, err := f.Ingest(ids[i%len(ids)], b.values, nil, b.weights)
		return err
	})
	if err != nil {
		return err
	}
	m.set("serve.fabric.ingest_us", us(d), "us")
	d, err = timed(perRound*10, func(i int) error {
		b := tenants.slot(i)
		_, err := f.Ingest("new"+strconv.Itoa(i), b.values, nil, b.weights)
		return err
	})
	if err != nil {
		return err
	}
	m.set("serve.fabric.create_us", us(d), "us")
	d, err = timed(perRound, func(i int) error { _, _, err := f.Sample(ids[i%len(ids)], nil); return err })
	if err != nil {
		return err
	}
	m.set("serve.fabric.sample_us", us(d), "us")
	return nil
}

// durabilityRows times the snapshot codec and the state-dir snapshot
// write.
func durabilityRows(m metrics, cfg config, named *inputs, dir string) error {
	spec := namedSpec(cfg.seed)
	sd, err := serve.OpenStateDir(filepath.Join(dir, "sd"))
	if err != nil {
		return err
	}
	inst, err := newNamedInstance(spec, sd)
	if err != nil {
		return err
	}
	defer inst.Close()
	for i := 0; i < countBatches; i++ {
		if err := ingestQuiet(inst, named.slot(i)); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	d, err := timed(perRound/10, func(int) error { buf.Reset(); return inst.Snapshot(&buf) })
	if err != nil {
		return err
	}
	m.set("snap.snapshot_us", us(d), "us")
	snapBytes := append([]byte(nil), buf.Bytes()...)
	d, err = timed(perRound/10, func(int) error {
		in, _, err := serve.RestoreInstance(bytes.NewReader(snapBytes))
		if err == nil {
			in.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("serve.restore_ms", ms(d), "ms")
	d, err = timed(perRound/10, func(int) error { return sd.WriteSnapshot(samplerName, inst) })
	if err != nil {
		return err
	}
	m.set("serve.statedir.write_snapshot_ms", ms(d), "ms")

	return nil
}

// recoveryRows repeats the recovery this run timed end to end in process:
// Recover minus the snapshot restore minus the compaction snapshot is the
// replay. The residual is the median child recovery of the same state
// minus the median in-process Recover, the two alternated recoveryPairs
// times: process start-up and whatever else the rows do not explain.
func recoveryRows(m metrics, cfg config, w *workloadRun, dir string) error {
	const recoveryPairs = 5
	var children, restores, recovers, compacts []float64
	for i := 0; i < recoveryPairs; i++ {
		state := filepath.Join(dir, fmt.Sprintf("child-%d", i))
		if err := copyDir(w.recoverState, state); err != nil {
			return err
		}
		r, err := timedRecovery(cfg, namedFlags(w.spec, state))
		if err != nil {
			return err
		}
		restore, recover, compact, err := recoverInProcess(w.recoverState, filepath.Join(dir, fmt.Sprintf("recover-%d", i)))
		if err != nil {
			return err
		}
		children = append(children, r.readyS)
		restores, recovers, compacts = append(restores, restore.Seconds()), append(recovers, recover.Seconds()), append(compacts, compact.Seconds())
	}
	restore, recover, compact := stats.Median(restores), stats.Median(recovers), stats.Median(compacts)
	m.set("serve.recover.restore_ms", restore*1e3, "ms")
	m.set("serve.recover.compact_ms", compact*1e3, "ms")
	m.set("serve.recover.replay_s", recover-restore-compact, "s")
	m.set("residual.recover_s", stats.Median(children)-recover, "s")
	return nil
}

// recoverInProcess copies a crashed state dir and runs StateDir.Recover
// on it, timing the whole recovery, the snapshot restore on its own, and
// the compaction snapshot.
func recoverInProcess(src, state string) (restore, recover, compact time.Duration, err error) {
	if err := copyDir(src, state); err != nil {
		return 0, 0, 0, err
	}
	raw, err := os.ReadFile(filepath.Join(state, samplerName+".snap"))
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	in, _, err := serve.RestoreInstance(bytes.NewReader(raw))
	if err != nil {
		return 0, 0, 0, err
	}
	restore = time.Since(t0)
	in.Close()
	sd, err := serve.OpenStateDir(state)
	if err != nil {
		return 0, 0, 0, err
	}
	srv := serve.NewServer()
	defer srv.Close()
	t0 = time.Now()
	if _, err := sd.Recover(srv); err != nil {
		return 0, 0, 0, err
	}
	recover = time.Since(t0)
	rin, ok := srv.Get(samplerName)
	if !ok {
		return 0, 0, 0, errors.New("in-process recovery registered no sampler")
	}
	t0 = time.Now()
	if err := sd.WriteSnapshot(samplerName, rin); err != nil {
		return 0, 0, 0, err
	}
	return restore, recover, time.Since(t0), nil
}

// spanServer wraps serve.Server.ServeHTTP with a span per request that
// carries spanHeader, and counts accepted connections.
type spanServer struct {
	h     http.Handler
	mu    sync.Mutex
	spans map[int64]time.Duration
	conns atomic.Int64
}

func (s *spanServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(spanHeader)
	if id == "" {
		s.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	s.h.ServeHTTP(w, r)
	d := time.Since(t0)
	n, err := strconv.ParseInt(id, 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.spans[n] = d
	s.mu.Unlock()
}

// tenantIngestPath sends the i-th tenant batch to its Zipf-drawn tenant.
func (in *inputs) tenantIngestPath(slot int) string {
	return "/tenant/" + fabricName + "/" + tenantID(in.tenantOf(slot)) + "/ingest"
}

// tenantQueryPath samples tenants the fill created, Zipf-weighted.
func (in *inputs) tenantQueryPath(i int) string {
	return "/tenant/" + fabricName + "/" + tenantID(in.tenantOf(i%fabricFill)) + "/sample"
}

// httpRows replays one traffic mix — the named workloads' writer and
// reader, or 16-value tenant batches to Zipf-drawn tenants with a tenant
// /sample reader — against an in-process loopback server. Passes alternate
// untraced and traced: the traced passes give each request's client span
// and ServeHTTP span, and each traced pass is compared with the untraced
// pass just before it for the tracing overhead.
func httpRows(m metrics, cfg config, mix string, named, tenants *inputs, dir string) error {
	var (
		srv       *serve.Server
		err       error
		in        *inputs
		ingest    func(slot int) string
		query     func(i int) string
		firstSlot int
		prefix    = "http."
	)
	if mix == "tenant" {
		in, prefix = tenants, "http.tenant_"
		if srv, err = fabricServer(tenantSpec(cfg.seed)); err != nil {
			return err
		}
		ingest, query = in.tenantIngestPath, in.tenantQueryPath
		firstSlot = fabricFill
		f, _ := srv.GetFabric(fabricName)
		for i := 0; i < firstSlot; i++ { // the fill, in process
			b := in.slot(i)
			if _, err := f.Ingest(tenantID(in.tenantOf(i)), b.values, nil, b.weights); err != nil {
				return err
			}
		}
	} else {
		in = named
		if srv, err = durableServer(namedSpec(cfg.seed), dir); err != nil {
			return err
		}
		ingest, query = namedIngestPath, workload{reads: namedReads}.readPath
	}
	defer srv.Close()
	sh := &spanServer{h: srv, spans: map[int64]time.Duration{}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := serve.NewHTTPServer(l.Addr().String(), sh, serve.DefaultHTTPTimeouts())
	hs.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			sh.conns.Add(1)
		}
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	defer func() {
		_ = hs.Close()
		<-done
	}()
	c := newClient("http://" + l.Addr().String())
	defer c.close()
	var ingestSelf, querySelf, overhead []float64
	var plainP50 float64
	slot := firstSlot
	for p := 0; p < 2*httpPairs; p++ {
		traced := p%2 == 1
		res := runPhase(c, in, phase{
			duration: httpPassTime, firstSlot: slot, queryRate: queryRate,
			ingestPath: ingest, queryPath: query, spanned: traced,
		})
		slot += len(res.ingest)
		p50 := stats.Median(latencies(res.ingest))
		if !traced {
			plainP50 = p50
			continue
		}
		overhead = append(overhead, (p50-plainP50)/plainP50*100)
		sh.mu.Lock()
		for _, r := range res.ingest {
			if s, ok := sh.spans[r.span]; ok && r.ok {
				ingestSelf = append(ingestSelf, us(r.latency-s))
			}
		}
		for _, r := range res.query {
			if s, ok := sh.spans[r.span]; ok && r.ok {
				querySelf = append(querySelf, us(r.latency-r.late-s))
			}
		}
		sh.mu.Unlock()
	}
	if len(ingestSelf) == 0 || len(querySelf) == 0 {
		return fmt.Errorf("traced HTTP pass matched no spans")
	}
	m.set(prefix+"ingest_self_us", stats.Median(ingestSelf), "us")
	m.set(prefix+"query_self_us", stats.Median(querySelf), "us")
	if mix == "named" {
		m.set("http.conns_opened", float64(sh.conns.Load()), "count")
		m.set("trace.overhead_pct", stats.Median(overhead), "%")
	}
	return nil
}

// compareRecordedCounts checks the deterministic counts against the record
// an earlier traced run of the same code and seed left in the work
// directory, and leaves a record when there is none.
func compareRecordedCounts(cfg config, m metrics) error {
	counts := map[string]float64{}
	for _, name := range deterministicCounts {
		counts[name] = m[name].Value
	}
	path := filepath.Join(cfg.workDir, fmt.Sprintf("counts-%s-seed%d.json", sourceDigest(), cfg.seed))
	if raw, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("count record %s: %w", relToRoot(path), err)
		}
		var diffs []string
		for _, name := range deterministicCounts {
			if prev[name] != counts[name] {
				diffs = append(diffs, fmt.Sprintf("%s %v (recorded %v)", name, counts[name], prev[name]))
			}
		}
		sort.Strings(diffs)
		if len(diffs) > 0 {
			return fmt.Errorf("%w: deterministic counts differ from an earlier run of the same code and seed: %v", errGate, diffs)
		}
		return nil
	}
	raw, err := json.Marshal(counts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
