package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	apiv1 "vcache/api/v1"
	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/workloads"
)

// The serve workload's job mix. Cold jobs are distinct small Rodinia
// specs that simulate; warm jobs repeat a spec answered earlier and are
// served from the artifact cache; dup jobs repeat the spec the other
// caller has in flight and coalesce onto it.
var (
	serveWorkloads = []string{"nw", "kmeans", "hotspot", "pathfinder", "backprop", "lud"}
	serveDesigns   = []string{"baseline-512", "vc-opt", "ideal"}
)

const (
	serveCallers   = 2  // closed-loop callers, one per core of the reference host
	coldPermille   = 10 // share of jobs that are cold, in 1/1000
	dupPermille    = 60 // share of jobs that duplicate the other caller's
	serveStarts    = 9  // daemon starts per run; setup_s is their median
	digestColdJobs = 18 // cold specs in the digest: every workload x design once
)

type jobClass int

const (
	cold jobClass = iota
	warm
	dup
)

func (c jobClass) String() string { return [...]string{"cold", "warm", "dup"}[c] }

// coldSpec is the idx-th distinct cold spec of a seed. The first
// digestColdJobs cover every workload and design once.
func coldSpec(seed uint64, idx int) apiv1.JobSpec {
	return apiv1.JobSpec{
		APIVersion: apiv1.Version,
		Workload: apiv1.WorkloadSpec{
			Name: serveWorkloads[idx%len(serveWorkloads)],
			Params: workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 4,
				Seed: splitmix(seed ^ uint64(idx)*0x9e3779b97f4a7c15)},
		},
		Design: apiv1.DesignSpec{Preset: serveDesigns[(idx/len(serveWorkloads))%len(serveDesigns)]},
	}
}

// splitmix is one step of the SplitMix64 generator, never zero.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// sequence hands out the seeded job sequence to the callers. The classes
// come from the seed; which spec a warm or dup job names depends on what
// has been answered or is in flight when it is drawn.
type sequence struct {
	mu       sync.Mutex
	seed     uint64
	state    uint64
	specs    []apiv1.JobSpec // cold specs handed out, in order
	answered []int           // cold indexes answered at least once
	done     []bool
	inflight [serveCallers]int
}

func newSequence(seed uint64) *sequence {
	q := &sequence{seed: seed, state: seed}
	for i := range q.inflight {
		q.inflight[i] = -1
	}
	return q
}

func (q *sequence) rand() uint64 {
	q.state = splitmix(q.state)
	return q.state
}

// next draws caller c's next job.
func (q *sequence) next(c int) (jobClass, int, apiv1.JobSpec) {
	q.mu.Lock()
	defer q.mu.Unlock()
	x := q.rand() % 1000
	other := q.inflight[(c+1)%serveCallers]
	class := warm
	switch {
	case x < coldPermille:
		class = cold
	case x < coldPermille+dupPermille && other >= 0:
		class = dup
	}
	if class == warm && len(q.answered) == 0 {
		class = dup
		if other < 0 {
			class = cold
		}
	}
	var idx int
	switch class {
	case cold:
		idx = len(q.specs)
		q.specs = append(q.specs, coldSpec(q.seed, idx))
		q.done = append(q.done, false)
	case dup:
		idx = other
	case warm:
		idx = q.answered[q.rand()%uint64(len(q.answered))]
	}
	q.inflight[c] = idx
	return class, idx, q.specs[idx]
}

// finish marks caller c's job on spec idx as over.
func (q *sequence) finish(c, idx int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.inflight[c] = -1
	if ok && !q.done[idx] {
		q.done[idx] = true
		q.answered = append(q.answered, idx)
	}
}

// jobRecord is one completed submission as the caller saw it.
type jobRecord struct {
	class     jobClass
	idx       int
	latency   time.Duration
	wallMS    float64
	cacheHit  bool
	coalesced bool
	bytes     int
	err       error
}

// phaseResult is the outcome of one closed-loop phase.
type phaseResult struct {
	wall     time.Duration
	jobs     []jobRecord
	rejected int
	replies  map[int][]byte // first reply per cold index
	fps      map[int]string // fingerprint per cold index
}

// drive runs serveCallers closed-loop callers against client until d has
// passed, checking every reply as it arrives: a job fails on a transport
// or HTTP error (429s are also counted as rejected), a non-done state, an
// empty result, or bytes or a fingerprint that differ from the first
// reply for the same spec.
func drive(ctx context.Context, client *apiv1.Client, q *sequence, d time.Duration, rec *recorder) *phaseResult {
	out := &phaseResult{replies: make(map[int][]byte), fps: make(map[int]string)}
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				class, idx, spec := q.next(c)
				t := time.Now()
				info, err := client.SubmitWait(ctx, spec)
				lat := time.Since(t)
				jr := jobRecord{class: class, idx: idx, latency: lat, err: err}
				if err == nil {
					jr.wallMS, jr.cacheHit, jr.coalesced, jr.bytes = info.WallMS, info.CacheHit, info.Coalesced, len(info.Result)
					jr.err = checkReply(info)
				}
				mu.Lock()
				var ae *apiv1.APIError
				if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
					out.rejected++
				}
				if jr.err == nil {
					jr.err = out.compare(idx, info)
				}
				out.jobs = append(out.jobs, jr)
				mu.Unlock()
				q.finish(c, idx, jr.err == nil)
				if rec != nil {
					id := rec.add("api.Client.SubmitWait", 0, t, t.Add(lat))
					if jr.err == nil {
						server := time.Duration(jr.wallMS * float64(time.Millisecond))
						rec.add("server.job", id, t.Add(lat-server), t.Add(lat))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// tally counts a phase's jobs as attempted operations and every failed
// job as a failed one.
func tally(rep *report, run *phaseResult) {
	rep.attempt(len(run.jobs))
	for _, j := range run.jobs {
		if j.err != nil {
			rep.fail(fmt.Errorf("serve %s job on spec %d: %w", j.class, j.idx, j.err))
		}
	}
}

// checkReply checks one wait-mode reply on its own.
func checkReply(info apiv1.JobInfo) error {
	switch {
	case info.State != apiv1.JobDone:
		return fmt.Errorf("serve: job %s ended %s: %s", info.ID, info.State, info.Error)
	case len(bytes.TrimSpace(info.Result)) == 0:
		return fmt.Errorf("serve: job %s returned no result", info.ID)
	case info.Fingerprint == "":
		return fmt.Errorf("serve: job %s returned no fingerprint", info.ID)
	}
	return nil
}

// compare checks a reply against the first reply for the same spec. The
// caller holds the lock guarding out.
func (out *phaseResult) compare(idx int, info apiv1.JobInfo) error {
	b := bytes.TrimSpace(info.Result)
	first, ok := out.replies[idx]
	if !ok {
		out.replies[idx] = append([]byte(nil), b...)
		out.fps[idx] = info.Fingerprint
		return nil
	}
	if out.fps[idx] != info.Fingerprint {
		return fmt.Errorf("serve: spec %d answered with fingerprints %s and %s", idx, out.fps[idx], info.Fingerprint)
	}
	if !bytes.Equal(first, b) {
		return fmt.Errorf("serve: spec %d (fingerprint %s) answered with different bytes", idx, info.Fingerprint)
	}
	return nil
}

// daemon is a running vcsimd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
	err    error // Wait's result, once exited is closed
	client *apiv1.Client
	tr     *http.Transport
	cache  string
}

// startDaemon launches vcsimd with a fresh artifact cache under dir and
// waits until it answers health checks. It returns the start-to-healthy
// time.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "vcsimd.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d := &daemon{cache: filepath.Join(dir, "cache"), exited: make(chan struct{})}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d.cmd = exec.Command(filepath.Join(bin, "vcsimd"), "-addr", addr, "-cache", d.cache, "-quiet")
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.tr = &http.Transport{MaxIdleConnsPerHost: serveCallers * 2}
	d.client = apiv1.NewClient("http://" + addr)
	d.client.HTTPClient = &http.Client{Transport: d.tr}

	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("serve: starting vcsimd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := d.client.Health(hctx)
		cancel()
		if err == nil {
			return d, time.Since(t0), nil
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("serve: vcsimd exited before becoming healthy: %v (log in %s)", d.err, logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("serve: vcsimd not healthy after 30s: %w", err)
		}
	}
}

// stop interrupts the daemon, waits for it to exit (killing it after a
// grace period) and returns its resource usage.
func (d *daemon) stop() syscall.Rusage {
	d.tr.CloseIdleConnections()
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return *ru
	}
	return syscall.Rusage{}
}

// freePort asks the kernel for a free loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// runServe drives a vcsimd subprocess closed-loop. Set-up starts the
// daemon serveStarts times on fresh caches and keeps the last one. A
// traced run splits the time between an untraced phase and a traced one,
// each on its own fresh daemon.
func runServe(ctx context.Context, o options, rec *recorder) (*report, error) {
	rep := &report{}
	var setups []time.Duration
	var daemons []*daemon
	defer func() {
		for _, d := range daemons {
			d.stop()
		}
	}()
	phases := 1
	if rec != nil {
		phases = 2
	}
	for i := 0; i < serveStarts; i++ {
		id := rec.open("server.start", 0)
		d, setup, err := startDaemon(ctx, o.bin, filepath.Join(o.work, fmt.Sprintf("daemon-%d", i)))
		rec.close(id)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		daemons = append(daemons, d)
		if len(daemons) > phases {
			daemons[0].stop()
			daemons = daemons[1:]
		}
	}

	phaseLen := o.seconds / time.Duration(phases)
	var runs []*phaseResult
	var rss float64
	var seqs []*sequence
	for ph := 0; ph < phases; ph++ {
		var r *recorder
		if rec != nil && ph == 1 {
			r = rec
			r.setRun(1)
		}
		q := newSequence(o.seed)
		runs = append(runs, drive(ctx, daemons[ph].client, q, phaseLen, r))
		seqs = append(seqs, q)
	}
	var daemonCPU float64
	for _, d := range daemons {
		ru := d.stop()
		rss = max(rss, float64(ru.Maxrss)/1024)
		daemonCPU += rusageCPU(ru)
	}
	measured, q := runs[len(runs)-1], seqs[len(seqs)-1]
	cacheDir := daemons[len(daemons)-1].cache
	daemons = nil

	for _, run := range runs {
		tally(rep, run)
	}

	// After the timed phase: each distinct spec must match a local run,
	// and the first digestColdJobs replies form the digest.
	q.mu.Lock()
	specs := append([]apiv1.JobSpec(nil), q.specs...)
	q.mu.Unlock()
	verified, verr := verifyLocal(ctx, specs, measured.replies, rec)
	rep.attempt(verified)
	for _, err := range verr {
		rep.fail(err)
	}
	d := newDigest()
	rep.attempt(1)
	if len(specs) < digestColdJobs {
		rep.fail(fmt.Errorf("serve: only %d cold specs answered, the digest needs %d", len(specs), digestColdJobs))
	}
	for idx := 0; idx < digestColdJobs && idx < len(specs); idx++ {
		d.add(strconv.Itoa(idx), measured.replies[idx])
	}

	var lat, overhead, simMS []float64
	var byClass [3]int
	ld := &layerData{}
	for _, j := range measured.jobs {
		if j.err != nil {
			continue
		}
		byClass[j.class]++
		ms := float64(j.latency) / float64(time.Millisecond)
		lat = append(lat, ms)
		overhead = append(overhead, ms-j.wallMS)
		ld.apiResultBytes += uint64(j.bytes)
		switch {
		case j.cacheHit:
			ld.srvCacheHits++
		case j.coalesced:
			ld.srvCoalesced++
		default:
			ld.srvSimulated++
			simMS = append(simMS, j.wallMS)
		}
	}
	jobsPerS := float64(len(measured.jobs)) / measured.wall.Seconds()
	rep.notef("serve: %d callers closed-loop for %v: %d jobs (%d cold, %d warm, %d dup by draw), %d distinct specs",
		serveCallers, measured.wall.Round(time.Millisecond), len(measured.jobs), byClass[cold], byClass[warm], byClass[dup], len(specs))
	rep.notef("serve: server answered %d by simulating, %d from cache, %d by coalescing; %d rejected",
		ld.srvSimulated, ld.srvCacheHits, ld.srvCoalesced, measured.rejected)
	rep.notef("%s", latencyNote("serve client latency per SubmitWait", lat))
	rep.notef("serve: results digest %s (seed %d, first %d cold specs)", d.sum(), o.seed, digestColdJobs)

	if rec == nil {
		rep.notef("serve: daemon start-to-healthy %v", setups)
		rep.notef("serve daemon %s", cpuNote(daemonCPU, measured.wall))
		rep.addEndToEnd(endToEnd{
			setupS:    median(seconds(setups)),
			wallS:     measured.wall.Seconds(),
			peakRSSMB: rss,
			jobsPerS:  jobsPerS,
			p50MS:     median(lat),
			p99MS:     percentile(lat, 99),
			okRatio:   1 - rep.failRatio(),
		})
		return rep, nil
	}

	ld.srvSimMSP50 = median(simMS)
	ld.apiOverheadMSP50 = median(overhead)
	ld.apiRejected = measured.rejected
	ld.art = serveArtifactStats(cacheDir, measured)
	ld.self = selfTimes(rec.snapshot())
	untraced := runs[0]
	untracedRate := float64(len(untraced.jobs)) / untraced.wall.Seconds()
	ld.tracingOverheadS = measured.wall.Seconds() - float64(len(measured.jobs))/untracedRate
	rep.notef("serve: untraced %.1f jobs/s, traced %.1f jobs/s", untracedRate, jobsPerS)
	rep.addLayers(ld)
	return rep, nil
}

// serveArtifactStats reconstructs the daemon's artifact traffic from
// outside: bytes written is the size of its cache directory, bytes read
// the stored size of every result served from the cache, and hits and
// misses the replies marked or not marked as cache hits.
func serveArtifactStats(dir string, run *phaseResult) artifact.Stats {
	st := artifact.Stats{BytesWritten: dirBytes(dir)}
	c, err := artifact.Open(dir)
	if err != nil {
		return st
	}
	size := make(map[string]int64)
	for _, e := range c.ListResults() {
		size[e.Fingerprint] = e.Bytes
	}
	for _, j := range run.jobs {
		if j.err != nil {
			continue
		}
		if j.cacheHit {
			st.ResultHits++
			st.BytesRead += uint64(size[run.fps[j.idx]])
		} else {
			st.ResultMisses++
		}
	}
	return st
}

// verifyLocal simulates every answered spec in this process and compares
// the canonical bytes with the daemon's reply. It returns how many specs
// it checked and the mismatches.
func verifyLocal(ctx context.Context, specs []apiv1.JobSpec, replies map[int][]byte, rec *recorder) (int, []error) {
	var idxs []int
	for idx := range replies {
		if idx < len(specs) {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	var mu sync.Mutex
	var errs []error
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < serveCallers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				if err := verifyOne(ctx, specs[idx], replies[idx], rec); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("serve spec %d: %w", idx, err))
					mu.Unlock()
				}
			}
		}()
	}
	for _, idx := range idxs {
		work <- idx
	}
	close(work)
	wg.Wait()
	return len(idxs), errs
}

func verifyOne(ctx context.Context, spec apiv1.JobSpec, reply []byte, rec *recorder) error {
	cfg, p, err := spec.Resolve()
	if err != nil {
		return err
	}
	g, ok := workloads.ByName(spec.Workload.Name)
	if !ok {
		return fmt.Errorf("unknown workload %q", spec.Workload.Name)
	}
	tb := time.Now()
	tr := g.Build(p)
	tr0 := time.Now()
	rec.add("workloads.Generator.Build", 0, tb, tr0)
	res, err := core.RunContext(ctx, cfg, tr, core.WithIntraParallelism(1))
	te := time.Now()
	rec.add("core.RunContext", 0, tr0, te)
	if err != nil {
		return err
	}
	local := bytes.TrimSpace(apiv1.EncodeResults(res))
	rec.add("api.EncodeResults", 0, te, time.Now())
	if !bytes.Equal(local, reply) {
		return fmt.Errorf("daemon reply (%d bytes) differs from a local run (%d bytes)", len(reply), len(local))
	}
	return nil
}
