package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/experiments"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// figuresMix is the bench mix of the paper-figure workload: an irregular
// graph kernel with high translation bandwidth, a level-synchronous
// traversal, and a regular streaming kernel.
var figuresMix = []string{"pagerank", "bfs", "kmeans"}

// figuresParams are the bench mix's generation parameters: 8 CUs x 4 warps
// at unit scale, seeded from the command line.
func figuresParams(seed uint64) workloads.Params {
	return workloads.Params{Scale: 1, NumCUs: 8, WarpsPerCU: 4, Seed: seed}
}

// runFigures times the serial paper-figure run plan. Each repetition sets
// up a fresh suite over an empty artifact cache and materializes the
// traces (set-up), then precomputes every figure with one worker (the
// timed phase). In a traced run, odd repetitions record spans and capture
// metrics snapshots; even ones stay untraced for the overhead comparison.
func runFigures(ctx context.Context, o options, rec *recorder) (*report, error) {
	p := figuresParams(o.seed)
	ids := experiments.Figures()
	rep := &report{}
	ld := &layerData{}
	var setups, walls, tracedWalls []time.Duration
	var done [][]time.Duration // completion times, per untraced repetition
	var firstDigest string
	var cpu float64 // process CPU seconds over the timed phases
	var planSize int
	summaries := make(map[string]trace.Summary)
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
		dir := filepath.Join(o.work, fmt.Sprintf("cache-%d", i))
		defer os.RemoveAll(dir)

		s, cache, setup, err := setupFigures(p, dir, r)
		if err != nil {
			return 0, err
		}
		s.CaptureMetrics = traced

		var events []experiments.RunEvent
		var finished []time.Duration // completion times from the start of Precompute
		var t1 time.Time
		pid := r.open("experiments.Suite.Precompute", 0)
		s.Progress = func(ev experiments.RunEvent) {
			if ev.Stage != "" {
				return
			}
			now := time.Now()
			events = append(events, ev)
			finished = append(finished, now.Sub(t1))
			r.add("core.System.RunContext", pid, now.Add(-ev.Wall), now)
		}
		m0 := readRuntime()
		c0 := cpuSeconds()
		t1 = time.Now()
		err = precompute(s, ids)
		wall := time.Since(t1)
		cpu += cpuSeconds() - c0
		m1 := readRuntime()
		r.close(pid)

		plan := s.Plan(ids...)
		planSize = len(plan)
		rep.attempt(len(plan))
		if err != nil {
			rep.fail(err)
			return wall, nil
		}
		if len(events) != len(plan) {
			rep.fail(fmt.Errorf("figures: %d simulations reported for a plan of %d", len(events), len(plan)))
		}
		for _, ev := range events {
			if ev.Cached {
				rep.fail(fmt.Errorf("figures: %s/%s answered from a cache that started empty", ev.Workload, ev.Design))
			}
		}

		// Checks, untimed: round trip, conservation, digest, artifact health.
		for _, wl := range figuresMix {
			if _, ok := summaries[wl]; !ok {
				tr, err := s.Trace(wl)
				if err != nil {
					return 0, err
				}
				summaries[wl] = tr.Summarize()
			}
		}
		results := s.Results()
		d := newDigest()
		var counts simCounts
		var encode time.Duration
		for _, req := range plan {
			res, ok := results[req.Workload+"\x00"+req.Config.Name]
			if !ok {
				rep.fail(fmt.Errorf("figures: no result for %s/%s", req.Workload, req.Config.Name))
				continue
			}
			te := time.Now()
			b := core.EncodeResults(res)
			te2 := time.Now()
			encode += te2.Sub(te)
			r.add("core.EncodeResults", 0, te, te2)
			if err := roundTrip(b); err != nil {
				rep.fail(fmt.Errorf("figures %s/%s: %w", req.Workload, req.Config.Name, err))
			}
			if err := conserved(res, summaries[req.Workload]); err != nil {
				rep.fail(err)
			}
			d.add(req.Workload+"/"+req.Config.Name, b)
			counts.add(res)
			if traced {
				if snap, ok := s.Metrics(req.Workload, req.Config.Name); ok {
					fired, _ := snap.Value("sim.fired")
					counts.totalEvents += uint64(fired)
				}
			}
		}
		var st artifact.Stats
		r.timed("artifact.Cache.Stats", 0, func() error { st = cache.Stats(); return nil })
		rep.check(artifactHealthy(st))
		if sum := d.sum(); firstDigest == "" {
			firstDigest = sum
		} else if sum != firstDigest {
			rep.fail(fmt.Errorf("figures: results digest %s differs from the first repetition's %s", sum, firstDigest))
		}

		var runS time.Duration
		for _, ev := range events {
			runS += ev.Wall
		}
		if !traced {
			setups = append(setups, setup)
			walls = append(walls, wall)
			done = append(done, finished)
			ld.art = st
			ld.traceBytes = dirBytes(filepath.Join(dir, "trace"))
			return wall, nil
		}

		tracedWalls = append(tracedWalls, wall)
		ld.expRuns = len(events)
		ld.expOverheadS = (wall - runS).Seconds()
		ld.runS = runS.Seconds()
		ld.encodeS = encode.Seconds()
		ld.setRuntime(m0, m1)
		ld.sim = counts
		// Suite.Trace both generates and writes a trace; time a separate
		// generation to split the two.
		ld.buildS, ld.inputMemInsts = 0, 0
		for _, wl := range figuresMix {
			g, _ := workloads.ByName(wl)
			tb := time.Now()
			tr := g.Build(p)
			ld.buildS += time.Since(tb).Seconds()
			r.add("workloads.Generator.Build", 0, tb, time.Now())
			ld.inputMemInsts += tr.Summarize().MemInsts
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	// Set-up is short; sample it a few more times for a steadier median.
	for i := 0; rec == nil && len(setups) < minSetups; i++ {
		dir := filepath.Join(o.work, fmt.Sprintf("setup-%d", i))
		_, _, setup, err := setupFigures(p, dir, nil)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	rep.notef("figures: plan of %d simulations over %v, params %+v", planSize, figuresMix, p)
	rep.notef("figures: results digest %s (seed %d)", firstDigest, o.seed)
	if rec != nil {
		ld.self = selfTimes(rec.snapshot())
		ld.tracingOverheadS = median(seconds(tracedWalls)) - median(seconds(walls))
		rep.notef("figures: untraced wall %.3fs, traced wall %.3fs", median(seconds(walls)), median(seconds(tracedWalls)))
		rep.addLayers(ld)
		return rep, nil
	}
	p50, p99, latNote := batchLatency("figures simulation completion time from the start of Precompute", done)
	rep.notef("figures: %d repetitions, wall %v, setup %v", len(walls), walls, setups)
	rep.notef("%s", cpuNote(cpu, sum(walls)+sum(tracedWalls)))
	rep.notef("%s", latNote)
	rep.addEndToEnd(endToEnd{
		setupS:    median(seconds(setups)),
		wallS:     median(seconds(walls)),
		peakRSSMB: peakRSSMB(),
		jobsPerS:  float64(count(done)) / sum(walls).Seconds(),
		p50MS:     p50,
		p99MS:     p99,
		okRatio:   1 - rep.failRatio(),
	})
	return rep, nil
}

// minSetups is how many times a figures run times its set-up.
const minSetups = 5

// setupFigures builds a one-worker suite over the bench mix with an empty
// artifact cache in dir and materializes every trace, returning the time
// that took.
func setupFigures(p workloads.Params, dir string, r *recorder) (*experiments.Suite, *artifact.Cache, time.Duration, error) {
	t0 := time.Now()
	var s *experiments.Suite
	var cache *artifact.Cache
	err := r.timed("experiments.New", 0, func() (err error) {
		s, err = experiments.New(p, figuresMix)
		return err
	})
	if err == nil {
		err = r.timed("artifact.Open", 0, func() (err error) {
			cache, err = artifact.Open(dir)
			return err
		})
	}
	if err != nil {
		return nil, nil, 0, err
	}
	s.Workers = 1
	s.Cache = cache
	for _, wl := range figuresMix {
		if err := r.timed("experiments.Suite.Trace", 0, func() error {
			_, err := s.Trace(wl)
			return err
		}); err != nil {
			return nil, nil, 0, err
		}
	}
	return s, cache, time.Since(t0), nil
}

// precompute runs the suite's plan, turning a simulation panic (the
// suite's report for a modelling error) into an error.
func precompute(s *experiments.Suite, ids []string) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("figures: simulation failed: %v", v)
		}
	}()
	return s.Precompute(ids...)
}

// artifactHealthy checks that a cache saw no corrupt entries and no
// write errors.
func artifactHealthy(st artifact.Stats) error {
	if st.Corrupt != 0 || st.Errors != 0 {
		return fmt.Errorf("artifact: %d corrupt entries, %d write errors", st.Corrupt, st.Errors)
	}
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) uint64 {
	var n uint64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += uint64(info.Size())
		}
		return nil
	})
	return n
}
