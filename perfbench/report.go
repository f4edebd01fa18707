package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"vcache/internal/artifact"
	"vcache/internal/core"
)

// metric is one named, unit-carrying number of a run.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// report collects one invocation's outcome: operations attempted and
// failed, the metrics, and human-readable notes printed before the result
// line.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   []metric
	notes     []string
}

// attempt counts n operations (simulations, jobs or whole-run checks).
func (r *report) attempt(n int) { r.attempted += n }

// fail records one failed operation.
func (r *report) fail(err error) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

// check attempts one operation whose outcome is err.
func (r *report) check(err error) {
	r.attempt(1)
	if err != nil {
		r.fail(err)
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// failRatio is failed operations over attempted ones.
func (r *report) failRatio() float64 {
	if r.attempted == 0 {
		return 1
	}
	return math.Min(1, float64(r.failed)/float64(r.attempted))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the notes, a metric table and the JSON result line.
func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed (fail_ratio %.6f)\n",
		r.attempted, r.failed, r.failRatio())
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    min(r.failed, max(r.attempted, 1)),
		Metrics:   make(map[string]resultValue, len(r.metrics)),
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-30s %18.6f %s\n", m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = resultValue{m.Value, m.Unit}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}

// endToEnd holds a run's user-visible numbers.
type endToEnd struct {
	setupS    float64 // median set-up time
	wallS     float64 // median timed phase
	peakRSSMB float64
	jobsPerS  float64
	p50MS     float64
	p99MS     float64
	okRatio   float64
}

// addEndToEnd emits every end-to-end metric, in BENCHMARK.json order.
func (r *report) addEndToEnd(e endToEnd) {
	r.add("setup_s", "s", e.setupS)
	r.add("wall_s", "s", e.wallS)
	r.add("peak_rss_mb", "MiB", e.peakRSSMB)
	r.add("jobs_per_s", "jobs/s", e.jobsPerS)
	r.add("p50_ms", "ms", e.p50MS)
	r.add("p99_ms", "ms", e.p99MS)
	r.add("ok_ratio", "ratio", e.okRatio)
}

// latencyNote states a latency sample's size and how well its tail is
// supported.
func latencyNote(what string, ms []float64) string {
	p99 := tailAt(ms, 99)
	s := fmt.Sprintf("%s: n=%d, p50 %.3f ms, p99 %.3f ms (%d samples beyond p99)",
		what, len(ms), median(ms), p99.Value, p99.Beyond)
	if t, ok := highestTail(ms); ok {
		s += fmt.Sprintf("; highest percentile with >=%d beyond: p%g = %.3f ms", minBeyond, t.P, t.Value)
	}
	return s
}

// batchLatency summarizes a batch workload's completion times, one slice
// per repetition: the medians over repetitions of each repetition's p50
// and p99, and a note stating the sample sizes behind them.
func batchLatency(what string, reps [][]time.Duration) (p50, p99 float64, note string) {
	var p50s, p99s []float64
	for _, r := range reps {
		ms := millis(r)
		p50s = append(p50s, median(ms))
		p99s = append(p99s, percentile(ms, 99))
	}
	per, beyond := 0, 0
	if len(reps) > 0 {
		per = len(reps[0])
		beyond = per - rank(per, 99)
	}
	note = fmt.Sprintf("%s: %d repetitions of %d (n=%d); p50 %.3f ms, p99 %.3f ms, each the median over repetitions of that repetition's percentile (%d samples beyond p99 per repetition)",
		what, len(reps), per, count(reps), median(p50s), median(p99s), beyond)
	return median(p50s), median(p99s), note
}

// simCounts sums the deterministic per-component counts of a set of
// simulations, read from their Results.
type simCounts struct {
	memInsts    uint64
	cycles      uint64
	coalesced   uint64
	tlbLookups  uint64
	tlbMisses   uint64
	iommuReqs   uint64
	iommuDelay  uint64
	walks       uint64
	fbtAllocs   uint64
	fbtL2TLB    uint64
	l1Hits      uint64
	l1Accesses  uint64
	l2Hits      uint64
	l2Accesses  uint64
	lineMerges  uint64
	dramReads   uint64
	totalEvents uint64 // engine events, when the caller can see them
	windows     uint64
	crossings   uint64
}

func (c *simCounts) add(r core.Results) {
	c.memInsts += r.GPU.MemInsts
	c.cycles += r.Cycles
	c.coalesced += r.GPU.CoalescedReqs
	c.tlbLookups += r.PerCUTLB.Accesses()
	c.tlbMisses += r.PerCUTLB.Misses
	c.iommuReqs += r.IOMMU.Requests
	c.iommuDelay += r.IOMMU.QueueDelay
	c.walks += r.IOMMU.Walks
	c.fbtAllocs += r.FBT.Allocations
	c.fbtL2TLB += r.FBT.SecondaryTLBHits
	c.l1Hits += r.L1.Hits()
	c.l1Accesses += r.L1.Accesses()
	c.l2Hits += r.L2.Hits()
	c.l2Accesses += r.L2.Accesses()
	c.lineMerges += r.LineMerges
	c.dramReads += r.DRAM.Reads
}

// layerData is everything a traced run reports per layer. Fields a
// workload does not exercise stay zero.
type layerData struct {
	expRuns      int
	expOverheadS float64

	buildS        float64
	inputMemInsts uint64

	openS       float64
	traceBytes  uint64
	traceChunks uint64

	runS       float64
	encodeS    float64
	allocs     uint64
	allocBytes uint64
	gcCPUS     float64

	sim simCounts

	art artifact.Stats

	srvSimulated int
	srvCacheHits int
	srvCoalesced int
	srvSimMSP50  float64

	apiOverheadMSP50 float64
	apiResultBytes   uint64
	apiRejected      int

	self             map[string]float64
	tracingOverheadS float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetric is one per-layer metric: its name, unit and how to read it.
type layerMetric struct {
	name, unit, better string
	get                func(*layerData) float64
}

// selfLayers are the layers the benchmark's spans are named after.
var selfLayers = []string{"experiments", "workloads", "trace", "core", "artifact", "api", "server"}

// layerMetrics lists every per-layer metric in BENCHMARK.json order.
func layerMetrics() []layerMetric {
	f := func(x uint64) float64 { return float64(x) }
	ms := []layerMetric{
		{"experiments.runs", "count", "lower", func(d *layerData) float64 { return float64(d.expRuns) }},
		{"experiments.overhead_s", "s", "lower", func(d *layerData) float64 { return d.expOverheadS }},
		{"workloads.build_s", "s", "lower", func(d *layerData) float64 { return d.buildS }},
		{"workloads.mem_insts", "count", "lower", func(d *layerData) float64 { return f(d.inputMemInsts) }},
		{"trace.open_s", "s", "lower", func(d *layerData) float64 { return d.openS }},
		{"trace.bytes", "bytes", "lower", func(d *layerData) float64 { return f(d.traceBytes) }},
		{"trace.chunks", "count", "lower", func(d *layerData) float64 { return f(d.traceChunks) }},
		{"core.run_s", "s", "lower", func(d *layerData) float64 { return d.runS }},
		{"core.mem_insts_per_s", "1/s", "higher", func(d *layerData) float64 { return ratio(f(d.sim.memInsts), d.runS) }},
		{"core.allocs_per_inst", "count", "lower", func(d *layerData) float64 { return ratio(f(d.allocs), f(d.sim.memInsts)) }},
		{"core.alloc_bytes_per_inst", "bytes", "lower", func(d *layerData) float64 { return ratio(f(d.allocBytes), f(d.sim.memInsts)) }},
		{"core.gc_cpu_s", "s", "lower", func(d *layerData) float64 { return d.gcCPUS }},
		{"core.encode_s", "s", "lower", func(d *layerData) float64 { return d.encodeS }},
		{"sim.events", "count", "lower", func(d *layerData) float64 { return f(d.sim.totalEvents) }},
		{"sim.events_per_inst", "ratio", "lower", func(d *layerData) float64 { return ratio(f(d.sim.totalEvents), f(d.sim.memInsts)) }},
		{"sim.ns_per_event", "ns", "lower", func(d *layerData) float64 { return ratio(d.runS*1e9, f(d.sim.totalEvents)) }},
		{"sim.windows", "count", "lower", func(d *layerData) float64 { return f(d.sim.windows) }},
		{"sim.crossings", "count", "lower", func(d *layerData) float64 { return f(d.sim.crossings) }},
		{"gpu.cycles", "cycles", "lower", func(d *layerData) float64 { return f(d.sim.cycles) }},
		{"gpu.coalesced_reqs", "count", "lower", func(d *layerData) float64 { return f(d.sim.coalesced) }},
		{"tlb.lookups", "count", "lower", func(d *layerData) float64 { return f(d.sim.tlbLookups) }},
		{"tlb.miss_ratio", "ratio", "lower", func(d *layerData) float64 { return ratio(f(d.sim.tlbMisses), f(d.sim.tlbLookups)) }},
		{"iommu.requests", "count", "lower", func(d *layerData) float64 { return f(d.sim.iommuReqs) }},
		{"iommu.requests_per_inst", "ratio", "lower", func(d *layerData) float64 { return ratio(f(d.sim.iommuReqs), f(d.sim.memInsts)) }},
		{"iommu.queue_delay_cycles", "cycles", "lower", func(d *layerData) float64 { return f(d.sim.iommuDelay) }},
		{"ptw.walks", "count", "lower", func(d *layerData) float64 { return f(d.sim.walks) }},
		{"fbt.allocations", "count", "lower", func(d *layerData) float64 { return f(d.sim.fbtAllocs) }},
		{"fbt.l2tlb_hits", "count", "higher", func(d *layerData) float64 { return f(d.sim.fbtL2TLB) }},
		{"cache.l1_hit_ratio", "ratio", "higher", func(d *layerData) float64 { return ratio(f(d.sim.l1Hits), f(d.sim.l1Accesses)) }},
		{"cache.l2_hit_ratio", "ratio", "higher", func(d *layerData) float64 { return ratio(f(d.sim.l2Hits), f(d.sim.l2Accesses)) }},
		{"cache.l2_accesses", "count", "lower", func(d *layerData) float64 { return f(d.sim.l2Accesses) }},
		{"cache.line_merges", "count", "higher", func(d *layerData) float64 { return f(d.sim.lineMerges) }},
		{"dram.reads", "count", "lower", func(d *layerData) float64 { return f(d.sim.dramReads) }},
		{"artifact.bytes_written", "bytes", "lower", func(d *layerData) float64 { return f(d.art.BytesWritten) }},
		{"artifact.bytes_read", "bytes", "lower", func(d *layerData) float64 { return f(d.art.BytesRead) }},
		{"artifact.hits", "count", "higher", func(d *layerData) float64 { return f(d.art.Hits()) }},
		{"artifact.misses", "count", "lower", func(d *layerData) float64 { return f(d.art.Misses()) }},
		{"server.simulated", "count", "lower", func(d *layerData) float64 { return float64(d.srvSimulated) }},
		{"server.cache_hits", "count", "higher", func(d *layerData) float64 { return float64(d.srvCacheHits) }},
		{"server.coalesced", "count", "higher", func(d *layerData) float64 { return float64(d.srvCoalesced) }},
		{"server.sim_ms_p50", "ms", "lower", func(d *layerData) float64 { return d.srvSimMSP50 }},
		{"api.overhead_ms_p50", "ms", "lower", func(d *layerData) float64 { return d.apiOverheadMSP50 }},
		{"api.result_bytes", "bytes", "lower", func(d *layerData) float64 { return f(d.apiResultBytes) }},
		{"api.rejected", "count", "lower", func(d *layerData) float64 { return float64(d.apiRejected) }},
	}
	for _, l := range selfLayers {
		l := l
		ms = append(ms, layerMetric{l + ".self_s", "s", "lower", func(d *layerData) float64 { return d.self[l] }})
	}
	return append(ms, layerMetric{"bench.tracing_overhead_s", "s", "lower",
		func(d *layerData) float64 { return d.tracingOverheadS }})
}

// addLayers emits every per-layer metric.
func (r *report) addLayers(d *layerData) {
	for _, m := range layerMetrics() {
		r.add(m.name, m.unit, m.get(d))
	}
	var layers []string
	for l := range d.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.3fs", l, d.self[l]))
	}
	r.notef("self time per layer: %s", strings.Join(parts, ", "))
}

// rtSample is a reading of the Go runtime's allocation and GC counters.
type rtSample struct {
	allocs, bytes uint64
	gcCPU         float64
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.bytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[2].Value.Float64()
	}
	return out
}

// setRuntime records the runtime counters consumed between a and b.
func (d *layerData) setRuntime(a, b rtSample) {
	d.allocs = b.allocs - a.allocs
	d.allocBytes = b.bytes - a.bytes
	d.gcCPUS = b.gcCPU - a.gcCPU
}
