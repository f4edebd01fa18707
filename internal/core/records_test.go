package core

import (
	"context"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/trace"
)

// accessDriver issues single line accesses on CU 0 of a system that has
// completed a run, executing the partitioned schedule until it drains and
// reclaiming records at every barrier, as a run does.
type accessDriver struct {
	s        *System
	onWindow func(uint64) bool
	done     func()
}

func newAccessDriver(s *System) *accessDriver {
	d := &accessDriver{s: s, done: func() {}}
	d.onWindow = func(uint64) bool { s.reclaim(); return true }
	return d
}

func (d *accessDriver) access(va memory.VAddr, write bool) {
	s := d.s
	s.intra.running = true
	s.Access(0, va, write, d.done)
	s.intra.part.Run(d.onWindow)
	s.intra.running = false
	s.reclaim()
}

// warmSystem builds a four-CU system of the given design and runs a
// trace touching va once, so its page is mapped, the shared caches and
// TLBs hold it, and the partitioned runner exists.
func warmSystem(t *testing.T, cfg Config, va memory.VAddr) *System {
	t.Helper()
	s := MustNew(smallCfg(cfg))
	s.Run(newWarmTrace(va))
	return s
}

// TestSteadyStateAccessZeroAlloc pins the access path of every design to
// zero allocations per access once a system is warm: request records,
// fill records, IOMMU lookup records and waiter lists all recycle through
// their pools.
func TestSteadyStateAccessZeroAlloc(t *testing.T) {
	const va = memory.VAddr(0x40000)
	vpn := va.Page()
	cases := []struct {
		name  string
		cfg   Config
		write bool
		// before runs ahead of each access to set up the scenario (for
		// example, evicting the line from the L1 so the access reaches
		// the L2).
		before func(s *System)
	}{
		{"ideal/L1 miss, L2 hit", DesignIdeal(), false, func(s *System) { s.l1s[0].InvalidateAll() }},
		{"ideal/store", DesignIdeal(), true, nil},
		{"baseline/per-CU TLB hit", DesignBaseline512(), false, nil},
		{"baseline/per-CU TLB miss, IOMMU hit", DesignBaseline512(), false, func(s *System) {
			s.cuTLBs[0].InvalidatePage(s.asid, vpn)
			s.l1s[0].InvalidateAll()
		}},
		{"baseline/store", DesignBaseline512(), true, nil},
		{"vc-opt/L1 miss, L2 hit", DesignVCOpt(), false, func(s *System) { s.flushL1(0) }},
		{"vc-opt/store", DesignVCOpt(), true, nil},
		{"l1-only/L1 miss, L2 hit", DesignL1OnlyVC(32), false, func(s *System) { s.flushL1(0) }},
		{"l1-only/store", DesignL1OnlyVC(32), true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := warmSystem(t, tc.cfg, va)
			d := newAccessDriver(s)
			step := func() {
				if tc.before != nil {
					tc.before(s)
				}
				d.access(va, tc.write)
			}
			// Grow pools and scratch to steady state. Each access lands
			// its events at new cycles, so warming also has to cycle the
			// engines' calendar windows until every bucket slab exists.
			for i := 0; i < 4096; i++ {
				step()
			}
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Fatalf("%v allocs per access, want 0", n)
			}
		})
	}
}

// mixedTrace is divergentTrace with every third instruction a store, so
// records complete on both sides of the partition boundary.
func mixedTrace(insts, pages int) *trace.Trace {
	b := trace.NewBuilder("pools", 1, 4, 2)
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < insts; i++ {
		addrs := make([]memory.VAddr, 16)
		for l := range addrs {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			page := rng % uint64(pages)
			lineIdx := (rng >> 32) % 8
			addrs[l] = memory.VAddr(page*memory.PageSize + lineIdx*memory.LineSize)
		}
		if i%3 == 2 {
			b.Warp().Store(addrs...)
		} else {
			b.Warp().Load(addrs...)
		}
	}
	return b.Build()
}

// TestRequestRecordsReturnToPools runs a load/store trace over every
// design on four partition workers (the race CI run makes it a data-race
// probe of the return-list hand-off too): afterwards every request record
// must be back in its CU's pool, no line fill or TLB miss may still be
// pending, and the pools must have recycled — far fewer records made
// than accesses issued.
func TestRequestRecordsReturnToPools(t *testing.T) {
	designs := []Config{DesignIdeal(), DesignBaseline512(), DesignVCOpt(), DesignL1OnlyVC(32)}
	tr := mixedTrace(1500, 64)
	for _, cfg := range designs {
		cfg := smallCfg(cfg)
		s := MustNew(cfg)
		res, err := s.RunContext(context.Background(), tr, WithIntraParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		made := 0
		for cu := range s.reqs {
			p := &s.reqs[cu]
			if len(p.free) != p.made || len(p.ret) != 0 {
				t.Errorf("%s cu%d: %d of %d request records not returned (%d parked)",
					cfg.Name, cu, p.made-len(p.free), p.made, len(p.ret))
			}
			made += p.made
		}
		if s.l2Pending.Len() != 0 {
			t.Errorf("%s: %d line fills still pending", cfg.Name, s.l2Pending.Len())
		}
		for cu := range s.tlbPending {
			if n := s.tlbPending[cu].Len(); n != 0 {
				t.Errorf("%s cu%d: %d TLB misses still pending", cfg.Name, cu, n)
			}
		}
		if made == 0 || uint64(made) >= res.GPU.CoalescedReqs/10 {
			t.Errorf("%s: pool reuse ineffective: %d records made for %d accesses",
				cfg.Name, made, res.GPU.CoalescedReqs)
		}
	}
}
