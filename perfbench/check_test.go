package main

import (
	"context"
	"testing"

	"vcache/internal/core"
	"vcache/internal/workloads"
)

// smallRun simulates a tiny workload and returns its results and trace
// summary.
func smallRun(t *testing.T) (core.Results, workloads.Params) {
	t.Helper()
	g, _ := workloads.ByName("nw")
	p := workloads.Params{Scale: 1, NumCUs: 2, WarpsPerCU: 2, Seed: 3}
	res, err := core.RunContext(context.Background(), core.DesignVCOpt(), g.Build(p), core.WithIntraParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}

func TestMutatedResultsFailChecks(t *testing.T) {
	res, p := smallRun(t)
	g, _ := workloads.ByName("nw")
	summary := g.Build(p).Summarize()

	b := core.EncodeResults(res)
	if err := roundTrip(b); err != nil {
		t.Fatalf("unmodified results: %v", err)
	}
	if err := conserved(res, summary); err != nil {
		t.Fatalf("unmodified results: %v", err)
	}
	ref := newDigest()
	ref.add("nw/vc-opt", b)

	mutated := res
	mutated.Cycles++
	d := newDigest()
	d.add("nw/vc-opt", core.EncodeResults(mutated))
	if d.sum() == ref.sum() {
		t.Error("a changed cycle count left the digest unchanged")
	}
	mutated = res
	mutated.GPU.MemInsts--
	if conserved(mutated, summary) == nil {
		t.Error("a lost memory instruction passed the conservation check")
	}

	for name, bad := range map[string][]byte{
		"trailing byte": append(append([]byte(nil), b...), 0),
		"truncated":     b[:len(b)-1],
		"bad magic":     append([]byte{b[0] ^ 0xff}, b[1:]...),
	} {
		if roundTrip(bad) == nil {
			t.Errorf("%s: corrupted bytes passed the round trip", name)
		}
		d := newDigest()
		d.add("nw/vc-opt", bad)
		if d.sum() == ref.sum() {
			t.Errorf("%s: corrupted bytes left the digest unchanged", name)
		}
	}
}

func TestDigestRepeatsAndDependsOnOrder(t *testing.T) {
	a, b := []byte("first"), []byte("second")
	d1, d2, d3 := newDigest(), newDigest(), newDigest()
	d1.add("x", a)
	d1.add("y", b)
	d2.add("x", a)
	d2.add("y", b)
	d3.add("y", b)
	d3.add("x", a)
	if d1.sum() != d2.sum() {
		t.Error("identical inputs gave different digests")
	}
	if d1.sum() == d3.sum() {
		t.Error("reordered inputs gave the same digest")
	}
}
