package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vcache/internal/core"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// vcGraphInput is one generated chunked trace of the vc-graph workload.
type vcGraphInput struct {
	name    string
	path    string
	summary trace.Summary
	bytes   uint64
	cur     *trace.Cursor
}

// runVCGraph times the paper's vc-opt design over the high-bandwidth
// workloads at paper-default parameters, replayed from v4 chunked files
// through RunCursor on the partitioned engine with one worker. Each
// repetition regenerates the files and opens fresh cursors (set-up), then
// runs every input (the timed phase).
func runVCGraph(ctx context.Context, o options, rec *recorder) (*report, error) {
	p := workloads.DefaultParams()
	p.Seed = o.seed
	cfg := core.DesignVCOpt()
	gens := workloads.HighBandwidth()
	rep := &report{}
	ld := &layerData{}
	var setups, walls, tracedWalls []time.Duration
	var done [][]time.Duration // completion times, per untraced repetition
	var firstDigest string
	var streamed [][]byte // canonical bytes of the first repetition, per input
	var cpu float64       // process CPU seconds over the timed phases
	minReps := 1
	if rec != nil {
		minReps = 2
	}

	err := repeat(o.seconds, minReps, func(i int) (time.Duration, error) {
		traced := rec != nil && i%2 == 1
		var r *recorder
		if traced {
			r = rec
			r.setRun(i)
		}
		runtime.GC()
		dir := filepath.Join(o.work, fmt.Sprintf("traces-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)

		t0 := time.Now()
		var build, open time.Duration
		inputs := make([]*vcGraphInput, len(gens))
		defer func() {
			for _, in := range inputs {
				if in != nil && in.cur != nil {
					in.cur.Close()
				}
			}
		}()
		for k, g := range gens {
			in := &vcGraphInput{name: g.Name, path: filepath.Join(dir, g.Name+".v4")}
			inputs[k] = in
			tb := time.Now()
			var err error
			in.summary, in.bytes, err = buildChunkedFile(g, p, in.path)
			te := time.Now()
			build += te.Sub(tb)
			r.add("workloads.Generator.BuildChunked", 0, tb, te)
			if err != nil {
				return 0, fmt.Errorf("vc-graph: generating %s: %w", g.Name, err)
			}
		}
		for _, in := range inputs {
			to := time.Now()
			cur, err := trace.OpenCursorFile(in.path)
			te := time.Now()
			open += te.Sub(to)
			r.add("trace.OpenCursorFile", 0, to, te)
			if err != nil {
				return 0, fmt.Errorf("vc-graph: opening %s: %w", in.name, err)
			}
			in.cur = cur
		}
		setup := time.Since(t0)

		var counts simCounts
		var results []core.Results
		var perRun, finished []time.Duration // run times; completion times from t1
		var runErrs []error
		m0 := readRuntime()
		c0 := cpuSeconds()
		t1 := time.Now()
		for _, in := range inputs {
			tr := time.Now()
			res, info, err := runStreamed(ctx, cfg, in.cur, r)
			perRun = append(perRun, time.Since(tr))
			finished = append(finished, time.Since(t1))
			results = append(results, res)
			runErrs = append(runErrs, err)
			counts.totalEvents += info.Events
			counts.windows += info.Windows
			counts.crossings += info.Crossings
		}
		wall := time.Since(t1)
		cpu += cpuSeconds() - c0
		m1 := readRuntime()

		// Checks, untimed: run errors, round trip, conservation, digest.
		rep.attempt(len(inputs))
		d := newDigest()
		var encode time.Duration
		for k, in := range inputs {
			if runErrs[k] != nil {
				rep.fail(fmt.Errorf("vc-graph %s: %w", in.name, runErrs[k]))
				continue
			}
			res := results[k]
			te := time.Now()
			b := core.EncodeResults(res)
			te2 := time.Now()
			encode += te2.Sub(te)
			r.add("core.EncodeResults", 0, te, te2)
			if err := roundTrip(b); err != nil {
				rep.fail(fmt.Errorf("vc-graph %s: %w", in.name, err))
			}
			if err := conserved(res, in.summary); err != nil {
				rep.fail(err)
			}
			d.add(in.name+"/"+cfg.Name, b)
			counts.add(res)
			if i == 0 {
				streamed = append(streamed, b)
			}
		}
		if sum := d.sum(); firstDigest == "" {
			firstDigest = sum
		} else if sum != firstDigest {
			rep.fail(fmt.Errorf("vc-graph: results digest %s differs from the first repetition's %s", sum, firstDigest))
		}

		if !traced {
			setups = append(setups, setup)
			walls = append(walls, wall)
			done = append(done, finished)
			return wall, nil
		}
		tracedWalls = append(tracedWalls, wall)
		ld.buildS = build.Seconds()
		ld.openS = open.Seconds()
		ld.runS = sum(perRun).Seconds()
		ld.encodeS = encode.Seconds()
		ld.setRuntime(m0, m1)
		ld.sim = counts
		ld.inputMemInsts, ld.traceBytes, ld.traceChunks = 0, 0, 0
		for _, in := range inputs {
			ld.inputMemInsts += in.summary.MemInsts
			ld.traceBytes += in.bytes
			ld.traceChunks += uint64(in.cur.NumChunks())
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()

	// Once per invocation, untimed: the streamed results must equal a
	// materialized replay of the same trace.
	rep.attempt(1)
	if err := checkMaterialized(ctx, o, p, cfg, gens, streamed); err != nil {
		rep.fail(err)
	}

	rep.notef("vc-graph: %d inputs under %s, params %+v", len(gens), cfg.Name, p)
	rep.notef("vc-graph: results digest %s (seed %d)", firstDigest, o.seed)
	if rec != nil {
		ld.self = selfTimes(rec.snapshot())
		ld.tracingOverheadS = median(seconds(tracedWalls)) - median(seconds(walls))
		rep.notef("vc-graph: untraced wall %.3fs, traced wall %.3fs", median(seconds(walls)), median(seconds(tracedWalls)))
		rep.addLayers(ld)
		return rep, nil
	}
	p50, p99, latNote := batchLatency("vc-graph simulation completion time from the start of the timed phase", done)
	rep.notef("vc-graph: %d repetitions, wall %v, setup %v", len(walls), walls, setups)
	rep.notef("%s", cpuNote(cpu, sum(walls)+sum(tracedWalls)))
	rep.notef("%s", latNote)
	rep.addEndToEnd(endToEnd{
		setupS:    median(seconds(setups)),
		wallS:     median(seconds(walls)),
		peakRSSMB: rss,
		jobsPerS:  float64(count(done)) / sum(walls).Seconds(),
		p50MS:     p50,
		p99MS:     p99,
		okRatio:   1 - rep.failRatio(),
	})
	return rep, nil
}

// buildChunkedFile streams g's trace into a v4 file at path and returns
// the trace summary and the file size.
func buildChunkedFile(g workloads.Generator, p workloads.Params, path string) (trace.Summary, uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return trace.Summary{}, 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	s, err := g.BuildChunked(p, w, trace.ChunkOptions{})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return trace.Summary{}, 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return trace.Summary{}, 0, err
	}
	return s, uint64(st.Size()), nil
}

// runStreamed simulates one cursor on the partitioned engine with one
// worker and returns the results and the engine statistics.
func runStreamed(ctx context.Context, cfg core.Config, cur *trace.Cursor, r *recorder) (core.Results, core.IntraInfo, error) {
	var sys *core.System
	if err := r.timed("core.New", 0, func() (err error) {
		sys, err = core.New(cfg)
		return err
	}); err != nil {
		return core.Results{}, core.IntraInfo{}, err
	}
	var res core.Results
	err := r.timed("core.System.RunCursor", 0, func() (err error) {
		res, err = sys.RunCursor(ctx, cur, core.WithIntraParallelism(1))
		return err
	})
	var info core.IntraInfo
	r.timed("core.System.IntraInfo", 0, func() error {
		info, _ = sys.IntraInfo()
		return nil
	})
	return res, info, err
}

// checkMaterialized regenerates every input, materializes it from a fresh
// cursor and compares a RunContext of it with the streamed results.
func checkMaterialized(ctx context.Context, o options, p workloads.Params, cfg core.Config, gens []workloads.Generator, streamed [][]byte) error {
	if len(streamed) != len(gens) {
		return fmt.Errorf("vc-graph: %d streamed results for %d inputs", len(streamed), len(gens))
	}
	dir := filepath.Join(o.work, "materialized")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for k, g := range gens {
		path := filepath.Join(dir, g.Name+".v4")
		if _, _, err := buildChunkedFile(g, p, path); err != nil {
			return err
		}
		cur, err := trace.OpenCursorFile(path)
		if err != nil {
			return err
		}
		tr, err := cur.Materialize()
		cur.Close()
		os.Remove(path)
		if err != nil {
			return fmt.Errorf("vc-graph: materializing %s: %w", g.Name, err)
		}
		res, err := core.RunContext(ctx, cfg, tr, core.WithIntraParallelism(1))
		if err != nil {
			return fmt.Errorf("vc-graph: materialized %s: %w", g.Name, err)
		}
		if b := core.EncodeResults(res); !bytes.Equal(b, streamed[k]) {
			return fmt.Errorf("vc-graph %s: streamed and materialized results differ", g.Name)
		}
	}
	return nil
}
