package main

import (
	"errors"
	"net/http/httptest"
	"testing"
)

// The gates must pass against a twin at the same seed and fire against a
// twin at another seed: the weighted samplers' answers depend on the seed
// through their random keys, so a server that sampled with the wrong
// randomness is caught.

func TestNamedGate(t *testing.T) {
	in := namedInputs(7)
	slots := make([]int, 60)
	for i := range slots {
		slots[i] = i
	}
	sut, _, err := namedTwin(namedSpec(7), in, slots)
	if err != nil {
		t.Fatal(err)
	}
	defer sut.Close()
	hs := httptest.NewServer(sut)
	defer hs.Close()
	c := newClient(hs.URL)
	defer c.close()

	same, _, err := namedTwin(namedSpec(7), in, slots)
	if err != nil {
		t.Fatal(err)
	}
	defer same.Close()
	if err := checkNamed(clientRequester(c), handlerRequester(same), namedReads); err != nil {
		t.Fatalf("same seed: %v", err)
	}

	other, _, err := namedTwin(namedSpec(8), in, slots)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := checkNamed(clientRequester(c), handlerRequester(other), namedReads); !errors.Is(err, errGate) {
		t.Fatalf("other seed: got %v, want a gate failure", err)
	}

	short, _, err := namedTwin(namedSpec(7), in, slots[:len(slots)-1])
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	if err := checkNamed(clientRequester(c), handlerRequester(short), namedReads); !errors.Is(err, errGate) {
		t.Fatalf("one batch short: got %v, want a gate failure", err)
	}
}
