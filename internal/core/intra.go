package core

import (
	"context"
	"fmt"

	"vcache/internal/noc"
	"vcache/internal/sim"
)

// The event schedule: a partitioned engine.
//
// A system is split into NumCUs+1 partitions — one per CU front end
// (warps, coalescer, L1, per-CU TLBs, invalidation filter, remap table)
// plus one shared back end (L2 and banks, IOMMU, FBT, page walker, DRAM,
// the NoC servers, and the GPU's warp-global coordinator) — each with its
// own calendar-queue engine, driven through conservative cycle windows by
// sim.Partitioned. The window width (lookahead) is the minimum latency of
// the two routes that cross the partition boundary, CU<->L2 and
// CU<->IOMMU, so no cross-partition message can land inside the window it
// was sent from.
//
// Cross-partition traffic during a run goes through
// sendToBackend/sendToCU; Link message counts are accumulated per
// partition and folded into the shared Link structs only at barriers, so
// snapshots see the usual NoC totals without the workers ever sharing a
// counter. The schedule is a pure function of the configuration:
// byte-identical results and metrics for every worker count, including
// one. Between runs every partition is idle, so operations such as
// Shootdown and FlushGPU apply their front-end effects directly.
type intraState struct {
	engines   []*sim.Engine // engines[0] == System.eng (the shared backend)
	lookahead uint64

	// part is the window runner of the current (or last) run; nil before
	// the first run. running is true while it executes.
	part    *sim.Partitioned
	running bool

	// routeMsgs defers per-partition NoC message counts for the two
	// boundary routes ([partition][routeIdx]); flushRouteCounts folds them
	// into the Link structs between windows.
	routeMsgs [][2]uint64

	// serialReason is non-empty when the configuration cannot be executed
	// on more than one worker (the same schedule still runs).
	serialReason string
}

// intraRoutes are the partition-boundary routes, indexed by routeIdx.
var intraRoutes = [2]noc.Route{noc.CUToL2, noc.CUToIOMMU}

func routeIdx(r noc.Route) int {
	if r == noc.CUToIOMMU {
		return 1
	}
	return 0
}

// IntraInfo describes a run's partitioned schedule (System.IntraInfo).
type IntraInfo struct {
	Partitions int    // partition count (CUs + shared backend)
	Workers    int    // resolved worker threads
	Window     uint64 // conservative window width in cycles (the lookahead)
	Windows    uint64 // synchronization windows executed
	Crossings  uint64 // cross-partition messages delivered
	Events     uint64 // events fired across all partition engines
	// SerialReason is non-empty when the configuration forced the worker
	// count to 1 (e.g. ProbeResidency reads shared caches from CU paths).
	SerialReason string
}

// IntraInfo reports the partitioned-engine statistics of the last run;
// ok is false only before the system's first run.
func (s *System) IntraInfo() (info IntraInfo, ok bool) {
	st := &s.intra
	if st.part == nil {
		return IntraInfo{}, false
	}
	return IntraInfo{
		Partitions:   len(st.engines),
		Workers:      st.part.Workers(),
		Window:       st.part.Lookahead(),
		Windows:      st.part.Windows(),
		Crossings:    st.part.Crossings(),
		Events:       s.totalFired(),
		SerialReason: st.serialReason,
	}, true
}

// cuEng returns the engine that owns cu's front-end events.
func (s *System) cuEng(cu int) *sim.Engine { return s.intra.engines[cu+1] }

// sendToBackend delivers h.Handle(arg) on the backend partition after the
// route's latency. Must be called from the CU's own partition.
func (s *System) sendToBackend(cu int, r noc.Route, h sim.Handler, arg uint64) {
	st := &s.intra
	st.routeMsgs[cu+1][routeIdx(r)]++
	st.part.SendEvent(cu+1, 0, s.net.Latency(r), h, arg)
}

// sendToCU delivers h.Handle(arg) on cu's partition after the route's
// latency. Must be called from the backend partition. Between runs every
// partition is idle, so the handler runs at once.
func (s *System) sendToCU(cu int, r noc.Route, h sim.Handler, arg uint64) {
	st := &s.intra
	if !st.running {
		h.Handle(arg)
		return
	}
	st.routeMsgs[0][routeIdx(r)]++
	st.part.SendEvent(0, cu+1, s.net.Latency(r), h, arg)
}

// flushRouteCounts folds the deferred per-partition NoC message counts
// into the shared Link structs. Called at window barriers and at end of
// run, where all workers are quiescent.
func (s *System) flushRouteCounts() {
	st := &s.intra
	for p := range st.routeMsgs {
		for ri := range st.routeMsgs[p] {
			n := st.routeMsgs[p][ri]
			if n == 0 {
				continue
			}
			st.routeMsgs[p][ri] = 0
			if l := s.net.Link(intraRoutes[ri]); l != nil {
				l.Messages += n
			}
		}
	}
}

// intraSerialReason reports why this run must execute its schedule on a
// single worker ("" = parallel-safe). These paths read or write state
// across the partition boundary synchronously, which is deterministic on
// one worker but racy on several.
func (s *System) intraSerialReason(traced bool) string {
	switch {
	case s.cfg.ProbeResidency:
		return "probe-residency classification reads shared caches on CU TLB misses"
	case s.cfg.GPU.BlockOnStore:
		return "block-on-store retires warps from backend store completions"
	case s.intra.lookahead == 0:
		return "zero-latency interconnect leaves no conservative lookahead"
	case traced:
		return "event tracing serializes writes to the shared sink"
	}
	return ""
}

// partition builds the partition engines at construction — one engine
// per CU front end plus the system engine as the shared backend — and
// rebinds every CU of the GPU to its engine. Warp-global coordination
// (barrier rendezvous, retirement) stays on the backend engine and is
// reached over the GPU network.
func (s *System) partition() {
	n := s.cfg.GPU.NumCUs + 1
	st := &s.intra
	st.engines = make([]*sim.Engine, n)
	st.engines[0] = s.eng
	for i := 1; i < n; i++ {
		st.engines[i] = sim.New()
	}
	st.lookahead = s.net.MinLatency(noc.CUToL2, noc.CUToIOMMU)
	st.routeMsgs = make([][2]uint64, n)

	coordLat := s.net.Latency(noc.CUToL2)
	s.gpu.Partition(
		s.cuEng,
		func(cu int, fn func()) { st.part.Send(cu+1, 0, coordLat, fn) },
		func(cu int, fn func()) { st.part.Send(0, cu+1, coordLat, fn) },
	)
}

// startRun builds the run's window runner for the requested worker count
// and brings every partition to the system clock, so a run on a reused
// system starts all CUs together. The partition gauges register on the
// first run and read the latest runner thereafter.
func (s *System) startRun(workers int, traced bool) {
	st := &s.intra
	if st.part == nil {
		s.reg.Gauge("sim.windows", func() float64 { return float64(st.part.Windows()) })
		s.reg.Gauge("sim.mailbox.crossings", func() float64 { return float64(st.part.Crossings()) })
		for i, e := range st.engines {
			e := e
			s.reg.Gauge(fmt.Sprintf("sim.partition.p%d.fired", i), func() float64 { return float64(e.Fired()) })
		}
	}
	st.serialReason = s.intraSerialReason(traced)
	if st.serialReason != "" {
		workers = 1
	}
	st.part = sim.NewPartitioned(st.engines, st.lookahead, workers)
	now := s.simNow()
	for _, e := range st.engines {
		e.RunUntil(now)
	}
}

// runInput is the one run body behind Run, RunContext and RunCursor:
// prepare, launch, then execute conservative windows with cancellation,
// metrics snapshots, and progress serviced at barriers. A streamed
// input's cursor is shared by all partition workers (its segment hand-off
// is mutex-guarded), and refills are host work, so the windowed schedule
// is unchanged.
func (s *System) runInput(ctx context.Context, in traceInput, opts []Option) (Results, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.events != nil {
		s.AttachTrace(o.events)
	}
	if o.batched {
		s.enableBatching()
	}
	s.contextSwitch(in.inASID())
	in.prepare(s)
	s.startRun(o.intra, o.events != nil)
	completed := false
	if err := in.launch(s, func() {
		completed = true
		s.finishCycle = s.eng.Now()
	}); err != nil {
		return Results{}, err
	}

	interval := o.metricsInterval
	if interval == 0 {
		interval = defaultMetricsInterval
	}
	nextSnap := interval
	var lastProgress uint64
	var err error
	onWindow := func(limit uint64) bool {
		s.reclaim()
		if e := ctx.Err(); e != nil {
			err = e
			return false
		}
		if o.wantsMetrics() && limit >= nextSnap {
			s.flushRouteCounts()
			s.emitSnapshot(&o)
			for nextSnap <= limit {
				nextSnap += interval
			}
		}
		if o.progress != nil {
			if f := s.totalFired(); f-lastProgress >= 1<<16 {
				lastProgress = f
				o.progress(Progress{Cycle: limit, Events: f})
			}
		}
		return true
	}
	s.intra.running = true
	s.intra.part.Run(onWindow)
	s.intra.running = false
	s.reclaim()
	s.flushRouteCounts()
	if err != nil {
		return Results{}, err
	}
	if e := in.finishErr(); e != nil {
		return Results{}, e
	}
	if !completed {
		return Results{}, ErrDeadlock
	}
	s.io.ExtendSampling()
	res := s.results(in.name())
	if o.wantsMetrics() {
		s.emitSnapshot(&o)
	}
	return res, o.sinkErr
}
