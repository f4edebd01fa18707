package core

import (
	"context"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/trace"
)

// Operations between runs apply their front-end effects directly: every
// partition is idle, so an L1 flush owed to a CU cannot wait for a
// message the next run would never deliver.

// pageLoads builds a one-warp-per-load trace under asid touching the first
// line of each of n pages.
func pageLoads(asid memory.ASID, n int) *trace.Trace {
	b := trace.NewBuilder("between", asid, 4, 2)
	for i := 0; i < n; i++ {
		b.Warp().Load(memory.VAddr(0x40000 + i*memory.PageSize))
	}
	return b.Build()
}

func runOne(t *testing.T, sys *System, tr *trace.Trace) Results {
	t.Helper()
	res, err := sys.RunContext(context.Background(), tr, WithIntraParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestShootdownAfterRunDropsVirtualL1Lines(t *testing.T) {
	cfg := smallCfg(DesignVC())
	sys := MustNew(cfg)
	runOne(t, sys, pageLoads(1, 1))
	cached := false
	for cu := 0; cu < cfg.GPU.NumCUs; cu++ {
		cached = cached || sys.L1(cu).Probe(0x40000)
	}
	if !cached {
		t.Fatal("line not in any L1 after warmup")
	}
	sys.Shootdown(0x40000)
	for cu := 0; cu < cfg.GPU.NumCUs; cu++ {
		if sys.L1(cu).Probe(0x40000) {
			t.Errorf("CU %d's virtual L1 still holds the shot-down line", cu)
		}
	}
}

func TestFlushGPUAfterRunEmptiesL1s(t *testing.T) {
	cfg := smallCfg(DesignVCOpt())
	sys := MustNew(cfg)
	runOne(t, sys, pageLoads(1, 16))
	if sys.L1(0).Resident() == 0 {
		t.Fatal("CU 0's L1 empty after warmup")
	}
	sys.FlushGPU()
	for cu := 0; cu < cfg.GPU.NumCUs; cu++ {
		if n := sys.L1(cu).Resident(); n != 0 {
			t.Errorf("CU %d's L1 holds %d lines after FlushGPU", cu, n)
		}
	}
}

// Without ASID tags a context switch flushes the virtual caches, so a
// second process reusing the first one's virtual addresses (homonyms)
// must miss in every L1. The same-ASID control shows the trace would hit.
func TestContextSwitchWithoutASIDTagsMissesL1(t *testing.T) {
	for _, tc := range []struct {
		name     string
		asid     memory.ASID
		wantHits bool
	}{{"other-asid", 2, false}, {"same-asid", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := MustNew(smallCfg(DesignVCOpt()))
			first := runOne(t, sys, pageLoads(1, 16))
			second := runOne(t, sys, pageLoads(tc.asid, 16))
			hits := second.L1.ReadHits - first.L1.ReadHits
			if (hits > 0) != tc.wantHits {
				t.Errorf("second run read %d L1 hits, want hits=%v", hits, tc.wantHits)
			}
		})
	}
}
