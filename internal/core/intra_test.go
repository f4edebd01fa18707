package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"vcache/internal/obs"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// intraTestTrace builds a small-but-real workload trace.
func intraTestTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	g, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return g.Build(workloads.DefaultParams())
}

// intraRun executes tr on a fresh system with the given worker count,
// returning the results and the final metrics snapshot.
func intraRun(t *testing.T, cfg Config, tr *trace.Trace, workers int) (Results, obs.Snapshot) {
	t.Helper()
	sys := MustNew(cfg)
	var last obs.Snapshot
	res, err := sys.RunContext(context.Background(), tr,
		WithIntraParallelism(workers),
		WithMetricsSnapshot(func(s obs.Snapshot) { last = s }))
	if err != nil {
		t.Fatalf("RunContext(workers=%d): %v", workers, err)
	}
	return res, last
}

// TestIntraDeterministicAcrossWorkers is the differential gate for the
// partitioned engine: real (workload, design) pairs must produce
// byte-identical Results and metrics snapshots at every worker count,
// including designs that exercise all four MMU paths.
func TestIntraDeterministicAcrossWorkers(t *testing.T) {
	pairs := []struct {
		workload string
		cfg      Config
	}{
		{"pagerank", DesignVCOpt()},
		{"kmeans", DesignBaseline512()},
		{"bfs", DesignL1OnlyVC(512)},
		{"hotspot", DesignIdeal()},
	}
	counts := []int{2, 4, runtime.NumCPU()}
	for _, p := range pairs {
		p := p
		t.Run(p.workload+"/"+p.cfg.Name, func(t *testing.T) {
			t.Parallel()
			tr := intraTestTrace(t, p.workload)
			base, baseSnap := intraRun(t, p.cfg, tr, 1)
			if base.Cycles == 0 || base.GPU.Instructions == 0 {
				t.Fatalf("degenerate baseline run: %+v", base)
			}
			for _, n := range counts {
				res, snap := intraRun(t, p.cfg, tr, n)
				if !reflect.DeepEqual(base, res) {
					t.Errorf("workers=%d: Results diverge from serial\nserial: %+v\nparallel: %+v", n, base, res)
				}
				if !reflect.DeepEqual(baseSnap, snap) {
					t.Errorf("workers=%d: final metrics snapshot diverges from serial", n)
				}
			}
		})
	}
}

// TestIntraInfoReporting checks the partition statistics surface: window
// geometry from the NoC, per-config serial fallbacks, and stable
// window/crossing counts across worker counts.
func TestIntraInfoReporting(t *testing.T) {
	tr := intraTestTrace(t, "kmeans")
	cfg := DesignVCOpt()

	sys := MustNew(cfg)
	if _, err := sys.RunContext(context.Background(), tr, WithIntraParallelism(1)); err != nil {
		t.Fatal(err)
	}
	info1, ok := sys.IntraInfo()
	if !ok {
		t.Fatal("IntraInfo not available after WithIntraParallelism run")
	}
	if info1.Partitions != cfg.GPU.NumCUs+1 {
		t.Errorf("partitions = %d, want %d", info1.Partitions, cfg.GPU.NumCUs+1)
	}
	if info1.Window == 0 || info1.Windows == 0 || info1.Crossings == 0 || info1.Events == 0 {
		t.Errorf("degenerate info: %+v", info1)
	}
	if info1.SerialReason != "" {
		t.Errorf("unexpected serial fallback: %q", info1.SerialReason)
	}

	sys4 := MustNew(cfg)
	if _, err := sys4.RunContext(context.Background(), tr, WithIntraParallelism(4)); err != nil {
		t.Fatal(err)
	}
	info4, _ := sys4.IntraInfo()
	if info4.Windows != info1.Windows || info4.Crossings != info1.Crossings || info4.Events != info1.Events {
		t.Errorf("schedule statistics depend on worker count: %+v vs %+v", info1, info4)
	}

	// Before its first run a system reports nothing; an optionless run
	// reports the same schedule on one worker.
	plain := MustNew(cfg)
	if _, ok := plain.IntraInfo(); ok {
		t.Error("IntraInfo reported before any run")
	}
	if _, err := plain.RunContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if info, ok := plain.IntraInfo(); !ok || info != info1 {
		t.Errorf("optionless run info = %+v (ok=%v), want %+v", info, ok, info1)
	}

	// Probe-residency configurations read shared caches from CU paths and
	// must fall back to one worker while keeping the canonical schedule.
	probed := DesignBaseline512()
	probed.ProbeResidency = true
	ps := MustNew(probed)
	pres, err := ps.RunContext(context.Background(), tr, WithIntraParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	pinfo, _ := ps.IntraInfo()
	if pinfo.SerialReason == "" || pinfo.Workers != 1 {
		t.Errorf("probed config should force one worker: %+v", pinfo)
	}
	ps1 := MustNew(probed)
	pres1, err := ps1.RunContext(context.Background(), tr, WithIntraParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pres, pres1) {
		t.Error("forced-serial schedule differs between requested worker counts")
	}
}

// TestIntraCancellation checks ctx cancellation is honoured at window
// barriers.
func TestIntraCancellation(t *testing.T) {
	tr := intraTestTrace(t, "kmeans")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := MustNew(DesignVCOpt())
	if _, err := sys.RunContext(ctx, tr, WithIntraParallelism(4)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
