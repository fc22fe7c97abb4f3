package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"smthill/internal/experiment"
	"smthill/internal/multicore"
	"smthill/internal/serve"
	"smthill/internal/simjob"
	"smthill/internal/workload"
)

// serveBench is the daemon workload: an in-process serve.Server behind
// a loopback listener, driven by two closed-loop clients. Each round
// starts a fresh server, so every round's memo starts cold.
type serveBench struct {
	name      string
	roundJobs int     // jobs per round, split evenly between the clients
	minJobs   int     // a run completes at least this many jobs
	nominal   float64 // seconds one round takes on a 2-CPU host
	epochSize int
	warmup    int
	mcEpochs  int      // measured epochs of a 2-core job
	epochs    int      // measured epochs of a HILL-WIPC or DCRA job
	steep     int      // measured epochs of a STEEP-WIPC job
	replicas  []uint64 // Spec.Seed values the mix draws from
}

const (
	clients = 2
	// resubmitEvery makes every resubmitEvery-th job of a client a
	// resubmission of one of its own earlier specs, answered from the
	// sweep memo.
	resubmitEvery = 4
	jobTimeout    = 60 * time.Second
	// fingerprint of daemon results: simjob keys already name every
	// parameter a result depends on.
	simjobFingerprint = "simjob"
)

func serveMixed(tiny bool) serveBench {
	s := serveBench{
		name:      "serve-mixed",
		roundJobs: 40,
		minJobs:   100,
		nominal:   6,
		epochSize: 16384,
		warmup:    2,
		mcEpochs:  10,
		epochs:    12,
		steep:     3,
		replicas:  []uint64{1, 2, 3},
	}
	if tiny {
		s.roundJobs, s.minJobs, s.nominal = 8, 8, 0.05
		s.epochSize, s.warmup, s.mcEpochs, s.epochs, s.steep = 2048, 1, 2, 2, 1
		s.replicas = []uint64{1}
	}
	return s
}

// pool returns every spec a seed can draw: 2-core ipc-pred/stall-pred
// HILL-WIPC runs of the 4-thread Table 3 workloads, and single-core
// HILL-WIPC, DCRA and STEEP-WIPC runs of the 2-thread ones, each at
// every replica seed.
func (s serveBench) pool() []simjob.Spec {
	var out []simjob.Spec
	for _, seed := range s.replicas {
		for _, w := range workload.FourThread() {
			for _, pair := range []string{"ipc-pred", "stall-pred"} {
				out = append(out, simjob.Spec{Workload: w.Name(), Tech: "HILL-WIPC", Cores: 2, Pairing: pair,
					Epochs: s.mcEpochs, EpochSize: s.epochSize, Warmup: s.warmup, Seed: seed})
			}
		}
		for _, w := range workload.TwoThread() {
			for _, tech := range []string{"HILL-WIPC", "DCRA", "STEEP-WIPC"} {
				ep := s.epochs
				if tech == "STEEP-WIPC" {
					ep = s.steep
				}
				out = append(out, simjob.Spec{Workload: w.Name(), Tech: tech,
					Epochs: ep, EpochSize: s.epochSize, Warmup: s.warmup, Seed: seed})
			}
		}
	}
	return out
}

// stratum names the kind of a spec: its technique (2-core runs apart)
// and its workload's Table 3 group.
func stratum(spec simjob.Spec) string {
	kind := spec.Tech
	if spec.Cores > 1 {
		kind = "2-core"
	}
	return kind + "/" + workload.ByName(spec.Workload).Group
}

// mix is the kind of each of every 15 fresh jobs of a round: 6 two-core
// jobs, two per 4-thread group, and one job per single-core technique
// and 2-thread group. It is interleaved so that a prefix is a mix too.
var mix = []string{
	"HILL-WIPC/ILP2", "2-core/ILP4", "DCRA/MIX2", "STEEP-WIPC/MEM2", "2-core/MIX4",
	"HILL-WIPC/MIX2", "DCRA/MEM2", "2-core/MEM4", "STEEP-WIPC/ILP2", "HILL-WIPC/MEM2",
	"2-core/ILP4", "DCRA/ILP2", "STEEP-WIPC/MIX2", "2-core/MIX4", "2-core/MEM4",
}

// round draws one round's job list per client from the seed. The
// round's fresh specs are distinct and follow mix, so rounds differ in
// which members, replicas and order run, not in their kinds. After
// every resubmitEvery-1 fresh jobs a client resubmits one of its own
// earlier specs, which the memo answers.
func (s serveBench) round(seed uint64, index int) [clients][]simjob.Spec {
	r := rand.New(rand.NewPCG(seed, 0x7365727665+uint64(index)))
	strata := map[string][]simjob.Spec{}
	for _, spec := range s.pool() {
		strata[stratum(spec)] = append(strata[stratum(spec)], spec)
	}
	shuffle := func(specs []simjob.Spec) {
		r.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	}
	for _, kind := range mix {
		shuffle(strata[kind]) // kinds mix repeats are shuffled again, still by seed
	}
	fresh := make([]simjob.Spec, s.roundJobs-s.roundJobs/resubmitEvery)
	for i := range fresh {
		kind := mix[i%len(mix)]
		fresh[i], strata[kind] = strata[kind][0], strata[kind][1:]
	}
	shuffle(fresh)

	var out, own [clients][]simjob.Spec
	for i, spec := range fresh {
		c := i % clients
		out[c] = append(out[c], spec)
		own[c] = append(own[c], spec)
		if len(out[c])%resubmitEvery == resubmitEvery-1 {
			out[c] = append(out[c], own[c][r.IntN(len(own[c]))])
		}
	}
	return out
}

// setup builds, for each distinct (workload, seed) of the round, the
// machine its job will run and its warm-up epochs: the fixed per-job
// cost the daemon pays before the first measured epoch.
func (s serveBench) setup(jobs [clients][]simjob.Spec) error {
	seen := map[string]bool{}
	for _, list := range jobs {
		for _, spec := range list {
			id := fmt.Sprintf("%s|%d|%d", spec.Workload, spec.Seed, spec.Cores)
			if seen[id] {
				continue
			}
			seen[id] = true
			if spec.Cores > 1 {
				w, err := spec.Resolve()
				if err != nil {
					return err
				}
				sys := multicore.New(multicore.DefaultConfig(spec.Cores), w.Streams(), nil)
				sys.CycleN(spec.Warmup * spec.EpochSize)
				continue
			}
			m, _, _, err := simjob.Build(spec)
			if err != nil {
				return err
			}
			m.CycleN(spec.Warmup * spec.EpochSize)
		}
	}
	return nil
}

// jobOutcome is one daemon job as its client saw it.
type jobOutcome struct {
	latency  time.Duration // submit to result received
	submit   time.Duration // POST until 202
	deliver  time.Duration // server's finished_at until the client saw the terminal event
	queue    time.Duration // created_at to started_at
	run      time.Duration // started_at to finished_at
	events   int
	memoHit  bool
	rejected bool  // 429 or 5xx
	err      error // why the job failed: refused, timed out, or a wrong result
}

// jobView is the part of the daemon's job JSON the clients read.
type jobView struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	Source     string          `json:"source"`
	Result     json.RawMessage `json:"result"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  time.Time       `json:"started_at"`
	FinishedAt time.Time       `json:"finished_at"`
}

// daemonClient is one closed-loop client: it submits a job, follows its
// event stream to the terminal state, fetches the result, and only then
// submits the next.
type daemonClient struct {
	base  string
	http  *http.Client
	exp   *expectations
	tr    *tracer
	first map[string][]byte // result bytes of each spec's first completion
}

func (c *daemonClient) do(ctx context.Context, spec simjob.Spec) jobOutcome {
	var out jobOutcome
	key := spec.Key()
	root := c.tr.begin(0, key, "daemon.job")
	defer c.tr.end(root)
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	t0 := time.Now()

	body, err := json.Marshal(spec)
	if err != nil {
		out.err = err
		return out
	}
	sp := c.tr.begin(root, key, "http.submit")
	var view jobView
	status, err := c.call(ctx, http.MethodPost, "/v1/jobs", body, &view)
	c.tr.end(sp)
	out.submit = time.Since(t0)
	out.rejected = status == http.StatusTooManyRequests || status >= 500
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d", status)
	}
	if err != nil {
		out.err = err
		return out
	}

	sp = c.tr.begin(root, key, "sse.wait")
	events, terminalSeen, err := c.follow(ctx, view.ID)
	c.tr.end(sp)
	out.events = events
	if err != nil {
		out.err = err
		return out
	}

	sp = c.tr.begin(root, key, "http.get")
	_, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+view.ID, nil, &view)
	c.tr.end(sp)
	out.latency = time.Since(t0)
	if err == nil && view.State != "done" {
		err = fmt.Errorf("job %s ended %s", view.ID, view.State)
	}
	if err != nil {
		out.err = err
		return out
	}
	out.queue = view.StartedAt.Sub(view.CreatedAt)
	out.run = view.FinishedAt.Sub(view.StartedAt)
	out.deliver = terminalSeen.Sub(view.FinishedAt)
	out.memoHit = view.Source == "memo"

	var res bytes.Buffer
	if err := json.Compact(&res, view.Result); err != nil {
		out.err = fmt.Errorf("result of %s: %w", key, err)
		return out
	}
	prev, seen := c.first[key]
	switch {
	case !c.exp.check(simjobFingerprint, key, res.Bytes()):
		out.err = fmt.Errorf("result of %s differs from its expected digest", key)
	case seen && !bytes.Equal(prev, view.Result):
		out.err = fmt.Errorf("memo hit for %s differs from the first result", key)
	case !seen:
		c.first[key] = append([]byte(nil), view.Result...)
	}
	return out
}

// call sends one request and decodes a JSON response into v.
func (c *daemonClient) call(ctx context.Context, method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s", method, path, strings.TrimSpace(string(raw)))
	}
	return resp.StatusCode, json.Unmarshal(raw, v)
}

// follow reads the job's SSE stream until the server ends it after the
// terminal state, returning the number of events and when the terminal
// state event arrived.
func (c *daemonClient) follow(ctx context.Context, id string) (int, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, time.Time{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, time.Time{}, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var events int
	var name string
	var terminal time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			events++
		case strings.HasPrefix(line, "data: ") && name == "state":
			var st struct {
				State string `json:"state"`
			}
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st) == nil &&
				(st.State == "done" || st.State == "failed" || st.State == "canceled") {
				terminal = time.Now()
			}
		}
	}
	if err := sc.Err(); err != nil {
		return events, terminal, err
	}
	if terminal.IsZero() {
		return events, terminal, errors.New("event stream ended before a terminal state")
	}
	return events, terminal, nil
}

// roundResult is one round: set-up time, wall time of the job set, the
// per-job outcomes and the sweep activity behind them.
type roundResult struct {
	setup    time.Duration
	wall     time.Duration
	rss      float64 // peak resident MiB
	jobs     []jobOutcome
	busy     map[string]float64 // executed sweep job seconds per key family
	executed int
	memoHits int
}

// runRound starts a fresh daemon, drives the round's job lists through
// it with one closed-loop client per list, and shuts it down.
func (s serveBench) runRound(lists [clients][]simjob.Spec, exp *expectations, tr *tracer) (roundResult, error) {
	var rr roundResult
	resetPeakRSS()
	t0 := time.Now()
	if err := s.setup(lists); err != nil {
		return rr, err
	}
	srv, err := serve.New(serve.Config{Workers: clients})
	if err != nil {
		return rr, err
	}
	watch := newSweepWatch(tr)
	srv.Engine().AddObserver(watch.observe)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rr, err
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // every stream has ended; nothing left to drain
		_ = srv.Shutdown(ctx)
		<-served
	}()

	base := "http://" + ln.Addr().String()
	transport := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}
	if err := waitHealthy(hc, base); err != nil {
		return rr, err
	}
	rr.setup = time.Since(t0)

	watch.parent = tr.begin(0, s.name, "serve.round")
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, list := range lists {
		wg.Add(1)
		go func(list []simjob.Spec) {
			defer wg.Done()
			c := &daemonClient{base: base, http: hc, exp: exp, tr: tr, first: map[string][]byte{}}
			for _, spec := range list {
				o := c.do(context.Background(), spec)
				mu.Lock()
				rr.jobs = append(rr.jobs, o)
				mu.Unlock()
			}
		}(list)
	}
	wg.Wait()
	rr.wall = time.Since(start)
	tr.end(watch.parent)
	if rr.rss, err = peakRSSMiB(); err != nil {
		return rr, err
	}

	watch.mu.Lock()
	rr.busy, rr.executed, rr.memoHits = watch.busy, watch.jobs, watch.memoHits
	watch.mu.Unlock()
	return rr, nil
}

// waitHealthy polls /healthz until the daemon answers 200.
func waitHealthy(hc *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after 10s (last error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// generate records the expected digest of every spec in the pool,
// computed by simjob.Run directly (outside the daemon).
func (s serveBench) generate(exp *expectations) error {
	specs := s.pool()
	results := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += clients {
				res, err := simjob.Run(context.Background(), specs[i], nil)
				if err == nil {
					results[i], err = json.Marshal(res)
				}
				errs[i] = err
			}
		}(w)
	}
	wg.Wait()
	for i, spec := range specs {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", spec.Key(), errs[i])
		}
		exp.set(simjobFingerprint, spec.Key(), results[i])
	}
	return nil
}

// runServe measures the daemon workload: enough rounds to fill the time
// budget and complete at least minJobs jobs. A traced run runs half as
// many rounds, each once untraced and once traced, then the layer
// probes.
func runServe(o options, s serveBench, exp *expectations) (*report, error) {
	rep := &report{metrics: newMetricSet()}
	tr := &tracer{}
	var all []roundResult
	var overheads []float64
	var sw sweepTotals
	rounds := max(o.reps(s.nominal), (s.minJobs+s.roundJobs-1)/s.roundJobs)
	if o.trace {
		rounds = (rounds + 1) / 2 // each round's job lists run untraced, then traced
	}
	record := func(rr roundResult) {
		for _, j := range rr.jobs {
			rep.attempted++
			if j.err != nil {
				rep.failed++
				fmt.Fprintln(os.Stderr, "perfbench: job failed:", j.err)
			}
		}
	}
	for i := 0; i < rounds; i++ {
		lists := s.round(o.seed, i)
		rr, err := s.runRound(lists, exp, nil)
		if err != nil {
			return nil, err
		}
		record(rr)
		all = append(all, rr)
		if !o.trace {
			continue
		}
		t, err := s.runRound(lists, exp, tr)
		if err != nil {
			return nil, err
		}
		record(t)
		all = append(all, t)
		sw.add(t.busy, t.wall, t.executed, t.memoHits)
		overheads = append(overheads, (t.wall - rr.wall).Seconds())
	}

	m := rep.metrics
	var lat, roundWalls, setups, rss, submit, runS, deliver, queue, hit []float64
	var totalWall float64
	var okJobs, rejected, events int
	for _, rr := range all {
		setups = append(setups, rr.setup.Seconds())
		rss = append(rss, rr.rss)
		roundWalls = append(roundWalls, rr.wall.Seconds())
		totalWall += rr.wall.Seconds()
		for _, j := range rr.jobs {
			if j.rejected {
				rejected++
			}
			if j.err != nil {
				continue
			}
			okJobs++
			events += j.events
			lat = append(lat, j.latency.Seconds())
			submit = append(submit, float64(j.submit.Nanoseconds())/1e6)
			deliver = append(deliver, float64(j.deliver.Nanoseconds())/1e6)
			queue = append(queue, float64(j.queue.Nanoseconds())/1e6)
			if j.memoHit {
				hit = append(hit, float64(j.latency.Nanoseconds())/1e6)
			} else {
				runS = append(runS, j.run.Seconds())
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%s round walls (s): %.3f peak RSS (MiB): %.1f\n", s.name, roundWalls, rss)
	if !o.trace {
		m.put("wall_s", median(roundWalls), "s")
		m.put("jobs_per_s", float64(okJobs)/totalWall, "jobs/s")
		m.put("job_p50_s", quantile(lat, 0.5), "s")
		m.put("job_p90_s", quantile(lat, 0.9), "s")
		m.put("setup_s", median(setups), "s")
		m.put("peak_rss_mib", median(rss), "MiB")
		return rep, nil
	}

	sw.put(m, clients)
	m.put("trace.overhead_s", median(overheads), "s")
	m.put("serve.submit_ms", median(submit), "ms")
	m.put("serve.run_s", median(runS), "s")
	m.put("serve.deliver_ms", median(deliver), "ms")
	m.put("serve.queue_wait_ms", median(queue), "ms")
	m.put("serve.hit_ms", median(hit), "ms")
	m.put("serve.rejected", float64(rejected), "count")
	m.put("telemetry.events_per_job", float64(events)/float64(max(okJobs, 1)), "count")

	var loads []workload.Workload
	for _, list := range s.round(o.seed, 0) {
		for _, spec := range list {
			loads = append(loads, workload.ByName(spec.Workload))
		}
	}
	w2, w4 := probeLoads(loads)
	if err := runProbes(m, tr, probeGeometry{epochSize: s.epochSize, warmup: s.warmup, stride: experiment.Default().OffLineStride}, w2, w4); err != nil {
		return nil, err
	}
	rep.spans = tr.snapshot()
	return rep, nil
}

// putServeZeros records the daemon-only layer metrics as zero for
// workloads that run no daemon.
func putServeZeros(m *metricSet) {
	for _, name := range []string{"serve.submit_ms", "serve.deliver_ms", "serve.queue_wait_ms", "serve.hit_ms"} {
		m.put(name, 0, "ms")
	}
	m.put("serve.run_s", 0, "s")
	m.put("serve.rejected", 0, "count")
	m.put("telemetry.events_per_job", 0, "count")
}
