// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator's public entry points, checks every
// output for correctness, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) by name and unit, ending with one JSON
// result line. See README.md for the workloads, the metrics and how they
// relate.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding the vcsimd binary
	work     string // per-invocation scratch directory
}

var runners = map[string]func(context.Context, options, *recorder) (*report, error){
	"figures":  runFigures,
	"vc-graph": runVCGraph,
	"serve":    runServe,
}

func main() {
	var o options
	var runSeconds, traceFlag int
	var seed int64
	var work string
	flag.StringVar(&o.workload, "workload", "", "workload: figures, vc-graph or serve")
	flag.Int64Var(&seed, "seed", 1, "workload seed; every generated input derives from it")
	flag.IntVar(&runSeconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory holding the vcsimd binary (set by run.sh)")
	flag.StringVar(&work, "work", "", "scratch directory for this run's files (set by run.sh)")
	flag.Parse()

	run, ok := runners[o.workload]
	if !ok || runSeconds < 1 || (traceFlag != 0 && traceFlag != 1) || work == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload figures|vc-graph|serve, --seconds >= 1, --trace 0|1 and --work (got %q, %d, %d, %q)\n",
			o.workload, runSeconds, traceFlag, work)
		os.Exit(2)
	}
	o.seed = workloadSeed(seed)
	o.seconds = time.Duration(runSeconds) * time.Second
	o.trace = traceFlag == 1

	o.work = filepath.Join(work, o.workload+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatal(err)
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	rep, err := run(context.Background(), o, rec)
	os.RemoveAll(o.work)
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.json", o.workload, seed))
		if err := rec.write(path); err != nil {
			fatal(err)
		}
		rep.notef("spans: %d written to %s", len(rec.snapshot()), path)
	}
	rep.print(os.Stdout)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// workloadSeed maps the command-line seed to the generators' seed. Zero
// would select the generators' built-in default, so it is mapped away.
func workloadSeed(n int64) uint64 {
	if n == 0 {
		return 1 << 63
	}
	return uint64(n)
}

// repeat calls rep(i) for i = 0, 1, ... and stops once the timed phases
// it reports have used the budget: it runs at least minReps times, and
// again only while the next repetition is expected to end less than half
// a repetition past the budget.
func repeat(budget time.Duration, minReps int, rep func(i int) (timed time.Duration, err error)) error {
	var used time.Duration
	for i := 0; ; i++ {
		d, err := rep(i)
		if err != nil {
			return err
		}
		used += d
		if i+1 >= minReps && used+d/2 >= budget {
			return nil
		}
	}
}

func selfUsage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// peakRSSMB is this process's peak resident set size in MiB.
func peakRSSMB() float64 { return float64(selfUsage().Maxrss) / 1024 }

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 { return rusageCPU(selfUsage()) }

func rusageCPU(ru syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuNote compares the CPU time a timed phase got with its wall time. On
// a shared host, a ratio that drops between runs of the same work means
// the host took the CPU away, not that the program slowed.
func cpuNote(cpu float64, wall time.Duration) string {
	return fmt.Sprintf("timed phases: %.3fs wall, %.3fs CPU (CPU/wall %.2f)", wall.Seconds(), cpu, cpu/wall.Seconds())
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// count is the number of durations across all slices.
func count(dss [][]time.Duration) int {
	n := 0
	for _, ds := range dss {
		n += len(ds)
	}
	return n
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
