package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"flowmotif/internal/server"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

const (
	batchSize     = 512                   // events per ingest request, all serving workloads
	queryInterval = 20 * time.Millisecond // open-loop reader period
	queryK        = 10
)

// servingSpec is one serving workload: what stream, which subscriptions,
// which deployment.
type servingSpec struct {
	name    string
	perUnit float64 // events per time unit of the stream
	subs    func() []stream.Subscription
	deploy  func(subs []stream.Subscription, dir string) (deployment, error)
	// events is the length of the dataset's stream, in whole batches. A
	// run that ingests more goes round: lap k is the same stream k spans
	// later (servingRig.batchInto), so the deadline and never the stream
	// ends a run.
	events      int
	warmBatches int // untimed warm-up slice, part of set-up
	// replayBatches caps how many of the run's batches the traced run's
	// layer replays push through each layer alone.
	replayBatches int
}

// deployment is the program as one workload runs it: a daemon or a
// cluster, reached only through its public surface.
type deployment interface {
	sender
	// frontURL is the HTTP base that serves /topk and /flush.
	frontURL() string
	// subDetections returns the detection total of every subscription.
	subDetections() (map[string]int64, error)
	close()
}

// sender issues a workload's primary request: one batch in, one
// acknowledgement back.
type sender interface {
	// prepare renders one batch as the next request. It is the load
	// generator's own work and is done before the request's timer starts;
	// evs is not kept beyond the send that follows.
	prepare(evs []temporal.Event)
	// send issues the prepared request under sequence number seq and
	// waits for the acknowledgement.
	send(seq int64) error
}

// daemon is one flowmotifd-equivalent: server, HTTP listener and the
// binary wire listener on loopback TCP.
type daemon struct {
	srv  *server.Server
	ts   *httptest.Server
	wire string
}

func startDaemon(cfg server.Config) (*daemon, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	wireAddr, err := srv.StartWire("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler()), wire: wireAddr}, nil
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Close()
}

// daemonConfig is flowmotifd's defaults (cmd/flowmotifd: -recent 4096,
// -topk 50, -workers 1) with a data dir and fsync off.
func daemonConfig(subs []stream.Subscription, dir string, member bool) server.Config {
	return server.Config{Subs: subs, DataDir: dir, Member: member, Recent: 4096, TopK: 50}
}

// scratchDir makes a fresh directory for WALs and snapshots inside the
// working directory (the benchmark writes nowhere else).
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// servingRig is one set-up of a serving workload.
type servingRig struct {
	spec    servingSpec
	subs    []stream.Subscription
	base    []temporal.Event // the dataset's stream: whole batches, in time order
	span    int64            // time units the base covers
	start   int              // batch of the base the run's stream starts at (from the seed)
	dep     deployment
	dir     string
	client  *http.Client
	nextSeq int64
}

// batchInto writes the i-th batch of the run's stream into dst, which it
// returns. The stream starts at batch r.start of the base and goes round
// it; every lap is shifted by the base's span, so time never runs back.
func (r *servingRig) batchInto(dst []temporal.Event, i int) []temporal.Event {
	n := len(r.base) / batchSize
	j := r.start + i
	dst = append(dst[:0], r.base[j%n*batchSize:(j%n+1)*batchSize]...)
	if shift := int64(j/n) * r.span; shift != 0 {
		for k := range dst {
			dst[k].T += shift
		}
	}
	return dst
}

// batch is batchInto with a slice of the batch's own, for callers that
// keep it.
func (r *servingRig) batch(i int) []temporal.Event { return r.batchInto(nil, i) }

// setupServing generates the stream, builds the deployment and pushes
// the warm-up slice through it. events is the base's length, whole
// batches. Round k of a run starts k quarters of the base after the
// seed's batch, so that the rounds of a run together cover the dataset
// evenly whatever the seed.
func setupServing(spec servingSpec, o options, events, round int) (*servingRig, error) {
	r := &servingRig{spec: spec, subs: spec.subs(), client: &http.Client{Timeout: 60 * time.Second}}
	rng := rand.New(rand.NewSource(o.seed))
	var err error
	if r.base, err = bitcoinStream(rng, streamNodes, events, spec.perUnit, o.draw(bitcoinDataset)); err != nil {
		return nil, err
	}
	r.span = r.base[len(r.base)-1].T - r.base[0].T + 1
	n := len(r.base) / batchSize
	r.start = (rng.Intn(n) + round*n/servingRounds) % n
	if r.dir, err = scratchDir(); err != nil {
		return nil, err
	}
	if r.dep, err = spec.deploy(r.subs, r.dir); err != nil {
		os.RemoveAll(r.dir)
		return nil, err
	}
	var buf []temporal.Event
	for i := 0; i < spec.warmBatches; i++ {
		buf = r.batchInto(buf, i)
		r.dep.prepare(buf)
		r.nextSeq++
		if err := r.dep.send(r.nextSeq); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up batch %d: %w", i, err)
		}
	}
	return r, nil
}

func (r *servingRig) close() {
	r.dep.close()
	r.client.CloseIdleConnections()
	os.RemoveAll(r.dir)
}

// get issues one GET against the front door and decodes the JSON body.
func (r *servingRig) get(path string, out interface{}) error {
	resp, err := r.client.Get(r.dep.frontURL() + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	// Drain what follows the value so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// topK asks the deployment the paper's §5 question for one subscription.
func (r *servingRig) topK(sub string) ([]float64, error) {
	var body struct {
		Instances []struct {
			Flow float64 `json:"flow"`
		} `json:"instances"`
	}
	if err := r.get("/topk?k="+strconv.Itoa(queryK)+"&sub="+url.QueryEscape(sub), &body); err != nil {
		return nil, err
	}
	flows := make([]float64, len(body.Instances))
	for i, in := range body.Instances {
		flows[i] = in.Flow
	}
	return flows, nil
}

func (r *servingRig) flush() error {
	resp, err := r.client.Post(r.dep.frontURL()+"/flush", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST /flush: %d: %s", resp.StatusCode, body)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// servingRun is what one timed phase measured.
type servingRun struct {
	first, batches int // the run's stream batches [first, first+batches) were sent
	events         int64
	use            usage     // from the first request to the flush's acknowledgement
	req            []float64 // ms per acknowledged ingest request
	query          []float64 // ms per top-k read, from its due time
	lateMax        float64   // ms the reader ran behind its schedule, worst case
	writeS, flushS float64   // seconds in the write loop / the final flush
	attempted      int64
	failed         int64
	errs           []error
}

func (s *servingRun) fail(err error) {
	s.failed++
	if len(s.errs) < 8 {
		s.errs = append(s.errs, err)
	}
}

// measure runs the timed phase: one closed-loop writer pushing batches
// until the deadline (or exactly fixed batches, when fixed > 0), one
// reader issuing a top-k read every queryInterval on an open-loop
// schedule, then the flush that makes the last result exist. sample,
// when set, is called from the reader about once a second.
func (r *servingRig) measure(tr *tracer, seconds float64, fixed int, sample func()) *servingRun {
	run := &servingRun{first: r.spec.warmBatches}
	m := startMeter()
	start := m.t0
	root := tr.start("run", 0, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var qFailed []error
	go func() {
		defer wg.Done()
		loop := tr.start("read_loop", root, 0)
		defer tr.end(loop)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i+1) * queryInterval)
			// Sleep in the kernel, not on a Go timer: at GOMAXPROCS=2 a timer
			// whose P was busy with GC work fired up to 175 ms late in
			// sizing runs, and that wait would be charged to the program.
			if d := time.Until(due); d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil) // an early return only issues the query early
			}
			select {
			case <-stop:
				return
			default:
			}
			if late := ms(time.Since(due)); late > run.lateMax {
				run.lateMax = late
			}
			sp := tr.start("query", loop, 0)
			_, err := r.topK(r.subs[i%len(r.subs)].ID)
			tr.end(sp)
			if err != nil {
				qFailed = append(qFailed, err)
				continue
			}
			run.query = append(run.query, ms(time.Since(due)))
			if sample != nil && i%50 == 49 { // once a second
				sample()
			}
		}
	}()

	loop := tr.start("write_loop", root, 0)
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wFailed []error
	var buf []temporal.Event
	for b := run.first; ; b++ {
		if fixed > 0 && run.batches == fixed || fixed <= 0 && !time.Now().Before(deadline) {
			break
		}
		buf = r.batchInto(buf, b)
		r.dep.prepare(buf)
		r.nextSeq++
		sp := tr.start("ingest", loop, r.nextSeq)
		t := time.Now()
		err := r.dep.send(r.nextSeq)
		d := time.Since(t)
		tr.end(sp)
		run.batches++
		if err != nil {
			// A failed ingest leaves the stream with a hole the reference
			// cannot follow; stop and let the run report the failure.
			wFailed = append(wFailed, err)
			break
		}
		run.req = append(run.req, ms(d))
	}
	tr.end(loop)
	run.writeS = time.Since(start).Seconds()
	close(stop)
	wg.Wait()

	sp := tr.start("flush", root, 0)
	t := time.Now()
	err := r.flush()
	run.flushS = time.Since(t).Seconds()
	tr.end(sp)
	tr.end(root)
	run.use = m.stop()

	run.events = int64(len(run.req)) * batchSize
	run.attempted = int64(run.batches) + int64(len(run.query)+len(qFailed)) + 1
	for _, e := range append(wFailed, qFailed...) {
		run.fail(e)
	}
	if err != nil {
		run.fail(err)
	}
	return run
}

// verify compares what the deployment reports after the flush — every
// subscription's detection total and top-10 flows — with the reference
// taken from a batch search over the ingested prefix.
func (r *servingRig) verify(run *servingRun, ref *reference) {
	got, err := r.dep.subDetections()
	if err != nil {
		run.fail(fmt.Errorf("reading detection totals: %w", err))
		return
	}
	for _, sub := range r.subs {
		run.attempted++
		want := ref.Subs[sub.ID]
		if got[sub.ID] != want.Detections {
			run.fail(fmt.Errorf("sub %s: deployment reports %d detections, reference %d", sub.ID, got[sub.ID], want.Detections))
			continue
		}
		flows, err := r.topK(sub.ID)
		if err != nil {
			run.fail(err)
			continue
		}
		if !sameFlows(flows, want.Top) {
			run.fail(fmt.Errorf("sub %s: top-%d flows %v, reference %v", sub.ID, queryK, flows, want.Top))
		}
	}
}

// ingested is the stream prefix the deployment has seen when a run ends.
func (r *servingRig) ingested(run *servingRun) []temporal.Event {
	n := run.first + len(run.req)
	evs := make([]temporal.Event, 0, n*batchSize)
	var buf []temporal.Event
	for i := 0; i < n; i++ {
		buf = r.batchInto(buf, i)
		evs = append(evs, buf...)
	}
	return evs
}

var errNoOutput = errors.New("run produced no requests")

// servingRounds is how many times an untraced run sets the deployment up
// and measures it, each round for a share of --seconds. How goroutines
// and heap happen to fall in one deployment colours all of it —
// cluster_mixed's query_p50_ms differed by up to 50 % between deployments
// of one process and by 6 % between the means of four — so a run pools
// several (README "The bounds").
const servingRounds = 4

// runServing is a serving workload's whole run: servingRounds rounds of
// set-up, timed phase and verification, pooled; with o.trace two rounds
// at half length — untraced, then traced — and the layer replays.
func runServing(spec servingSpec, o options) (*result, error) {
	events, fixed, rounds := spec.events, 0, servingRounds
	if o.events > 0 {
		// Fixed work: one round, a token warm-up, then exactly o.events,
		// over a base of that length.
		spec.warmBatches = min(spec.warmBatches, 4)
		fixed, rounds = max(o.events/batchSize, 1), 1
		events = (fixed + spec.warmBatches) * batchSize
	}
	res := &result{}
	// one is one round; the caller closes the rig.
	one := func(tr *tracer, round int, seconds float64, sample func(*servingRig) func()) (*servingRig, *servingRun, float64, error) {
		t := time.Now()
		rig, err := setupServing(spec, o, events, round)
		if err != nil {
			return nil, nil, 0, err
		}
		setup := time.Since(t).Seconds()
		var s func()
		if sample != nil {
			s = sample(rig)
		}
		run := rig.measure(tr, seconds, fixed, s)
		if len(run.req) == 0 {
			rig.close()
			return nil, nil, 0, errors.Join(append(run.errs, errNoOutput)...)
		}
		t = time.Now()
		ref, err := streamReference(rig.subs, rig.ingested(run))
		if err != nil {
			rig.close()
			return nil, nil, 0, err
		}
		fmt.Fprintf(os.Stderr, "%s: set-up %.2fs, timed %.2fs (write %.2fs, flush %.2fs), reference %.2fs\n",
			spec.name, setup, run.use.wall, run.writeS, run.flushS, time.Since(t).Seconds())
		rig.verify(run, ref)
		res.attempted += run.attempted
		res.failed += run.failed
		res.errs = append(res.errs, run.errs...)
		return rig, run, setup, nil
	}

	if !o.trace {
		var setups []float64
		var all servingRun
		for k := 0; k < rounds; k++ {
			rig, run, setup, err := one(nil, k, o.seconds/float64(rounds), nil)
			if err != nil {
				return nil, err
			}
			rig.close()
			setups = append(setups, setup)
			all.events += run.events
			all.use.wall += run.use.wall
			all.use.cpu += run.use.cpu
			all.use.alloc += run.use.alloc
			all.req = append(all.req, run.req...)
			all.query = append(all.query, run.query...)
		}
		endToEnd(&res.metrics, median(setups), all.events, all.use, all.req, all.query)
		return res, nil
	}

	rigA, plain, setup, err := one(nil, 0, o.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	rigA.close()
	endToEnd(&res.metrics, setup, plain.events, plain.use, plain.req, plain.query)

	tr := newTracer()
	var cs *clusterSampler
	rig, traced, _, err := one(tr, 0, o.seconds/2, func(r *servingRig) func() {
		if cr, ok := r.dep.(*clusterRig); ok {
			cs = &clusterSampler{rig: cr}
			return cs.sample
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer rig.close()
	lm := res.startLayers(plain.events, plain.use, traced.events, traced.use, traced.req)
	lm.set("query_late_max_ms", traced.lateMax, "ms")
	if err := servingLayers(lm, tr, rig, o, traced, cs); err != nil {
		return nil, err
	}
	res.spans = tr.spans
	return res, nil
}
