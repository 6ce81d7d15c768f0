package main

import (
	"encoding/json"
	"fmt"

	"slidingsample/internal/serve"
	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// Input shapes. The named spec is BENCH_5's (whose rows sent 200-value
// batches; 100 is the ROADMAP's swload baseline); the fabric template,
// batch size, tenant budget and Zipf skew, used by the ledger's tenant
// rows, are BENCH_6's.
const (
	samplerName = "flows"
	fabricName  = "users"

	namedBatch   = 100
	namedN       = 4096
	namedK       = 16
	namedG       = 4
	namedPayload = 2048 // distinct pre-built batches, cycled

	tenantBatch   = 16
	tenantN       = 4096
	tenantK       = 8
	tenantBudget  = 100_000
	tenantSkew    = 1.1
	tenantPayload = 4096
	tenantPicks   = 1 << 19 // Zipf pick table length, cycled
)

func namedSpec(seed uint64) serve.Spec {
	return serve.Spec{Mode: "seq", Sampler: "sharded-weighted-wor", N: namedN, K: namedK, G: namedG, Seed: seed}
}

func tenantSpec(seed uint64) serve.Spec {
	return serve.Spec{Mode: "seq", Sampler: "weighted-wor", N: tenantN, K: tenantK, Seed: seed}
}

// batch is one pre-built weighted ingest batch and its JSON body.
type batch struct {
	values  []string
	weights []float64
	body    []byte
}

// inputs is everything a workload sends, made from its seed alone.
type inputs struct {
	batches []batch
	picks   []int32 // tenant ranks per batch slot (tenant inputs only)
}

// tenantID names the tenant of Zipf rank r.
func tenantID(r int32) string { return fmt.Sprintf("t%06d", r) }

// makeBatches builds count distinct batches of size values each. Values are
// distinct 14-character strings drawn from r; weights cycle over
// 1.5, 2.5, …, 9.5 as cmd/swload sends them ((batch+position)%9+1, plus
// .5), the scheme behind BENCH_5 and BENCH_6.
func makeBatches(r *xrand.Rand, count, size int) []batch {
	out := make([]batch, count)
	for i := range out {
		b := batch{values: make([]string, size), weights: make([]float64, size)}
		for j := 0; j < size; j++ {
			b.values[j] = fmt.Sprintf("v%013x", r.Uint64()>>12)
			b.weights[j] = float64((i+j)%9+1) + 0.5
		}
		body, err := json.Marshal(serve.IngestRequest{Values: b.values, Weights: b.weights})
		if err != nil {
			panic(err) // strings and finite floats always marshal
		}
		b.body = body
		out[i] = b
	}
	return out
}

func namedInputs(seed uint64) *inputs {
	r := xrand.New(seed)
	return &inputs{batches: makeBatches(r, namedPayload, namedBatch)}
}

func tenantInputs(seed uint64) *inputs {
	r := xrand.New(seed)
	in := &inputs{batches: makeBatches(r, tenantPayload, tenantBatch), picks: make([]int32, tenantPicks)}
	z := xrand.NewZipf(r, tenantSkew, tenantBudget)
	for i := range in.picks {
		in.picks[i] = int32(z.Next())
	}
	return in
}

// slot returns the batch sent as the i-th ingest request.
func (in *inputs) slot(i int) *batch { return &in.batches[i%len(in.batches)] }

// tenantOf returns the tenant the i-th ingest request goes to.
func (in *inputs) tenantOf(i int) int32 { return in.picks[i%len(in.picks)] }

// element is the served element type.
type element = stream.Element[string]

// elements wraps values as sequence-window elements.
func elements(values []string) []element {
	out := make([]element, len(values))
	for i, v := range values {
		out[i] = element{Value: v}
	}
	return out
}
