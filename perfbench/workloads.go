package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"slidingsample/internal/serve"
	"slidingsample/internal/stats"
)

// Run-shape constants. queryRate, the open-loop reader's fixed schedule,
// is a choice, not a measured deployment rate: at 200 requests per second
// each 500 ms round holds 100 reads (50 /sample on named-durable), enough
// for a per-round median, while the reads take under a tenth of the
// server's time (about 0.6 ms per /sample and 0.2 ms per /weight over
// loopback on the machine the benchmark was built on). The warm-up fills
// the window, the pools and the WAL before timing.
const (
	setupStarts   = 21   // cold starts per run; setup_s is their median
	recoverProbes = 24   // killed recoveries per run
	queryRate     = 200. // reader requests per second
	namedWarmup   = 2000 // batches (200k values) before the recovery probes
)

// workload is what one workload serves and reads. Both workloads serve a
// durable named sampler of BENCH_5's size and differ only in sharding, so
// the pair separates internal/parallel (dealing and the cross-shard merge)
// from the rest of the durable ingest and query path.
type workload struct {
	spec serve.Spec
	// reads are the reader's GET paths, cycled; the unsharded sampler has
	// no total-weight oracle, so its reader sends /sample alone.
	reads []string
}

// namedReads are named-durable's reads, also replayed by the ledger's HTTP
// rows.
var namedReads = []string{"/sample/" + samplerName, "/weight/" + samplerName}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "named-durable":
		return workload{namedSpec(seed), namedReads}, nil
	case "named-unsharded":
		spec := serve.Spec{Mode: "seq", Sampler: "weighted-wor", N: namedN, K: namedK, Seed: seed}
		return workload{spec, []string{"/sample/" + samplerName}}, nil
	}
	return workload{}, fmt.Errorf("unknown -workload %q (want named-durable or named-unsharded)", name)
}

func (wl workload) readPath(i int) string { return wl.reads[i%len(wl.reads)] }

func namedFlags(spec serve.Spec, stateDir string) []string {
	return []string{
		"-name", samplerName, "-mode", spec.Mode, "-sampler", spec.Sampler,
		"-n", strconv.FormatUint(spec.N, 10), "-k", strconv.Itoa(spec.K), "-g", strconv.Itoa(spec.G),
		"-seed", strconv.FormatUint(spec.Seed, 10),
		"-state-dir", stateDir, "-snapshot-interval", "0",
	}
}

// recovery is one timed restart.
type recovery struct {
	readyS float64
	cpuS   float64 // from rusage, after the kill right behind /healthz 200
}

// timedRecovery restarts the server with args, times it to /healthz 200,
// kills it and reads its CPU time.
func timedRecovery(cfg config, args []string) (recovery, error) {
	s, err := startServer(cfg.swserve, args)
	if err != nil {
		return recovery{}, err
	}
	s.stop(syscall.SIGKILL)
	return recovery{readyS: s.ready.Seconds(), cpuS: s.usageCPUSeconds()}, nil
}

func namedIngestPath(int) string { return "/ingest/" + samplerName }

func ackedSlots(rs []request) []int {
	var out []int
	for _, r := range rs {
		if r.ok {
			out = append(out, r.slot)
		}
	}
	return out
}

// runNamed runs one workload on its durable named sampler. Set-up is
// setupStarts cold starts; then a warm-up ingest, a SIGKILL and timed
// recoveries of that WAL, each on a fresh copy; the last recovery is the
// server the measured phase runs on: a closed-loop writer of 100-value
// batches and an open-loop reader cycling over the workload's reads. At the
// end the server's answers are checked against an in-process twin fed the
// same acknowledged batches.
func runNamed(cfg config, runDir string, wl workload) (workloadRun, error) {
	spec := wl.spec
	in := namedInputs(cfg.seed)
	w := workloadRun{e2e: metrics{}, spec: spec}
	state := filepath.Join(runDir, "state")
	w.serverFlags = namedFlags(spec, "<state-dir>")

	var setup []float64
	var s *server
	for i := 0; i < setupStarts; i++ {
		dir := state
		if i < setupStarts-1 {
			dir = filepath.Join(runDir, fmt.Sprintf("setup-%d", i))
		}
		var err error
		if s, err = startServer(cfg.swserve, namedFlags(spec, dir)); err != nil {
			return w, err
		}
		setup = append(setup, s.ready.Seconds())
		if i < setupStarts-1 {
			s.stop(syscall.SIGKILL)
		}
	}

	c := newClient(s.base)
	warm := runPhase(c, in, phase{maxBatches: namedWarmup, ingestPath: namedIngestPath})
	c.close()
	slots := ackedSlots(warm.ingest)
	s.stop(syscall.SIGKILL)

	pristine := filepath.Join(runDir, "crashed")
	if err := copyDir(state, pristine); err != nil {
		return w, err
	}
	w.recoverState = pristine
	host, err := startHostProbe(filepath.Join(runDir, "reference.log"), in.batches[0].body)
	if err != nil {
		return w, err
	}
	defer host.close()
	var readyS, cpuS []float64
	for i := 0; i < recoverProbes; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("recover-%d", i))
		if err := copyDir(pristine, dir); err != nil {
			return w, err
		}
		if err := host.probe(); err != nil {
			return w, err
		}
		r, err := timedRecovery(cfg, namedFlags(spec, dir))
		if err != nil {
			return w, err
		}
		readyS, cpuS = append(readyS, r.readyS), append(cpuS, r.cpuS)
		_ = os.RemoveAll(dir)
	}
	s, err = startServer(cfg.swserve, namedFlags(spec, state))
	if err != nil {
		return w, err
	}
	defer s.stop(syscall.SIGTERM)
	readyS = append(readyS, s.ready.Seconds())

	c = newClient(s.base)
	defer c.close()
	rounds, err := runRounds(c, in, s, host, phase{
		firstSlot:  namedWarmup,
		queryRate:  queryRate,
		ingestPath: namedIngestPath,
		queryPath:  wl.readPath,
	}, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return w, err
	}
	slow := host.slowdown()
	// setup_s is not scaled: process start-up did not follow the probe
	// (scaled, its spread over ten runs grew).
	w.e2e.set("setup_s", stats.Median(setup), "s")
	w.notef("setup_s: median of %d cold starts", setupStarts)
	w.notef("host probe %.1f us per reference request (median of %d probes), so the other time metrics are scaled by 1/%.4f; raw figures:",
		slow*refProbeUs, len(host.times), slow)
	w.e2e.set("recover_s", stats.Median(readyS)/slow, "s")
	w.e2e.set("recover_cpu_s", stats.Median(cpuS)/slow, "s")
	w.notef("  recover_s %.4f s, median of %d restarts; recover_cpu_s %.4f s, median of %d",
		stats.Median(readyS), len(readyS), stats.Median(cpuS), len(cpuS))
	if err := measured(&w, s, rounds, slow); err != nil {
		return w, err
	}
	for _, r := range rounds {
		slots = append(slots, ackedSlots(r.ingest)...)
	}
	twin, words, err := namedTwin(spec, in, slots)
	if err != nil {
		return w, err
	}
	defer twin.Close()
	w.e2e.set("sampler_words", words, "words")
	if err := checkNamed(clientRequester(c), handlerRequester(twin), wl.reads); err != nil {
		if !errors.Is(err, errGate) {
			return w, err
		}
		w.gateErr = err
	}
	return w, nil
}

// measured reduces the measured rounds to the end-to-end metrics: each
// is the median over rounds of the round's figure, scaled by 1/slow.
func measured(w *workloadRun, s *server, rounds []round, slow float64) error {
	rss, err := s.peakRSSMiB()
	if err != nil {
		return err
	}
	var rate, ip50, ip90, cpu, qp50, qp90 []float64
	var nIngest, nSample, nQuery, acked int
	var late []float64
	for _, r := range rounds {
		events := r.ackedEvents()
		if events == 0 {
			return fmt.Errorf("a measured round acknowledged no ingest batch")
		}
		lat := latencies(r.ingest)
		rate = append(rate, float64(events)/r.elapsed.Seconds())
		ip50, ip90 = append(ip50, stats.Quantile(lat, .5)), append(ip90, stats.Quantile(lat, .9))
		cpu = append(cpu, r.cpuS*1e6/float64(events))
		// The reader's /weight answers form a second, much faster latency
		// mode; a percentile over the mix would sit between the modes and
		// swing with their proportions, so the query metrics are over
		// /sample only.
		var sample []request
		for _, q := range r.query {
			if strings.HasPrefix(q.path, "/sample/") {
				sample = append(sample, q)
			}
			late = append(late, ms(q.late))
		}
		if sl := latencies(sample); len(sl) > 0 {
			qp50, qp90 = append(qp50, stats.Quantile(sl, .5)), append(qp90, stats.Quantile(sl, .9))
		}
		nIngest, nSample, nQuery, acked = nIngest+len(r.ingest), nSample+len(sample), nQuery+len(r.query), acked+len(lat)
		a, f := r.counts()
		w.attempted, w.failed = w.attempted+a, w.failed+f
	}
	if len(qp50) == 0 {
		return fmt.Errorf("no sample query succeeded")
	}
	m := w.e2e
	m.set("ingest_events_per_s", stats.Median(rate)*slow, "1/s")
	m.set("ingest_p50_ms", stats.Median(ip50)/slow, "ms")
	m.set("ingest_p90_ms", stats.Median(ip90)/slow, "ms")
	m.set("server_cpu_us_per_event", stats.Median(cpu)/slow, "us")
	m.set("query_p50_ms", stats.Median(qp50)/slow, "ms")
	m.set("server_rss_peak_mb", rss, "MiB")
	w.notef("  ingest_events_per_s %.0f, ingest_p50_ms %.4f, ingest_p90_ms %.4f, server_cpu_us_per_event %.4f: medians over %d rounds of %v (%d requests)",
		stats.Median(rate), stats.Median(ip50), stats.Median(ip90), stats.Median(cpu), len(rounds), roundTime, nIngest)
	// The /sample p90 is printed, not reported: its tail is the reads that
	// collide with a writer's batch, and over ten runs it spread 0.2-0.5 of
	// its median even when scaled, past any bound a regression gate holds.
	w.notef("  query_p50_ms %.4f: median over the rounds of %d /sample requests (of %d reader requests); their p90 %.4f, scaled %.4f (not gated)",
		stats.Median(qp50), nSample, nQuery, stats.Median(qp90), stats.Median(qp90)/slow)
	w.acceptRatio = float64(acked) / float64(nIngest)
	w.queryLateP90 = stats.Quantile(late, 0.9)
	return nil
}
