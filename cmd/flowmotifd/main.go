// Command flowmotifd is the flow-motif serving daemon: it ingests
// interaction events as they occur and detects flow-motif instances online
// (Kosyfaki et al., EDBT 2019, computed incrementally over a sliding
// δ-retention window), serving detections over an HTTP/JSON API.
//
// Usage:
//
//	flowmotifd -addr :8089 -sub "M(3,3):600:5" -sub "chain3:300:0" \
//	           [-data-dir DIR [-snapshot-every 5m] [-fsync]]
//	flowmotifd -member -addr :8090 [-data-dir DIR]           # cluster shard
//	flowmotifd -cluster-coordinator -shards 3 -sub ...       # local cluster
//	flowmotifd -cluster-coordinator -join m1=http://h1:8090 \
//	           -join m2=http://h2:8090 -sub ...              # remote cluster
//
// Each -sub registers one detector as motif:delta:phi, where motif is a
// catalog name ("M(4,4)B"), "chainN"/"cycleN", or a spanning path
// ("0-1-2-0"); delta is the window duration δ and phi the per-edge-set
// minimum flow φ (optional, default 0). The subscription id served by the
// API is "motif/δ/φ" unless -sub is given as id=motif:delta:phi.
//
// Cluster roles (see internal/cluster and DESIGN.md §9–10): -member starts
// an empty shard whose subscriptions a coordinator places at runtime over
// POST /cluster/add-sub and /cluster/remove-sub, and which receives
// replicated batches on a binary wire listener (-wire-addr, or a free port;
// advertised as "wirePort" on /healthz). -cluster-coordinator
// starts a coordinator that shards the -sub set across its members by
// rendezvous hashing, replicates ingest to all of them through an
// asynchronous sequence-numbered pipeline (acks on log append; -queue-depth
// bounds each member's backlog before ingest backpressures, and
// -coalesce-events caps how much of a backlog is folded into one member
// call), scatter-gathers queries, and fails members over when they stop
// answering; members come from repeated -join id=url flags (remote
// daemons), from -shards N (in-process engines, each with its own data dir
// under -data-dir), or both. The coordinator serves the same data-plane
// API as a single daemon, plus POST /members/add, /members/remove and
// /members/fail.
//
// With -pprof-addr the daemon serves net/http/pprof on a separate, opt-in
// listener, so the streaming hot path can be profiled in situ (CPU, heap,
// mutex) without exposing the profiler on the public API address.
//
// With -data-dir the daemon is durable: every acknowledged batch lands in
// a segmented write-ahead log, engine state is checkpointed periodically
// (-snapshot-every), on POST /snapshot, and on graceful shutdown, and a
// restart recovers the exact pre-crash state — snapshot plus WAL-tail
// replay (see internal/store and DESIGN.md §8).
//
// API (see internal/server), the same on a daemon and a coordinator:
//
//	POST /ingest    {"events":[{"from":0,"to":1,"t":10,"f":5}, ...]}
//	                (a daemon takes "seq" as its resend tag; a
//	                coordinator assigns it and refuses a client's)
//	POST /flush     close all still-open windows
//	GET  /instances?sub=ID&limit=N   recent detections (limit 50)
//	GET  /topk?sub=ID&k=N            best by flow (k 10)
//	                an empty sub is every subscription, merged
//	GET  /subs | /stats | /healthz | /metrics | /debug/traces | /debug/top
//	POST /snapshot  checkpoint engine + sink state (durable daemon)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/server"
	"flowmotif/internal/stream"
)

// newLogger builds the daemon's structured logger from -log-level and
// -log-format.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// fatal logs the error and exits (slog has no Fatal level).
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

// subFlags collects repeated -sub arguments.
type subFlags []stream.Subscription

func (s *subFlags) String() string { return fmt.Sprintf("%d subscriptions", len(*s)) }

func (s *subFlags) Set(v string) error {
	sub, err := parseSub(v)
	if err != nil {
		return err
	}
	*s = append(*s, sub)
	return nil
}

// joinFlags collects repeated -join arguments ("id=url" or a bare URL,
// which takes its host:port as the member id).
type joinFlags []struct{ id, url string }

func (j *joinFlags) String() string { return fmt.Sprintf("%d members", len(*j)) }

func (j *joinFlags) Set(v string) error {
	id, u, ok := strings.Cut(v, "=")
	if !ok {
		u = v
		id = strings.TrimPrefix(strings.TrimPrefix(v, "http://"), "https://")
	}
	id, u = strings.TrimSpace(id), strings.TrimSpace(u)
	if id == "" || u == "" {
		return fmt.Errorf("join %q: want id=url", v)
	}
	*j = append(*j, struct{ id, url string }{id, u})
	return nil
}

// parseSub parses "[id=]motif:delta[:phi]".
func parseSub(v string) (stream.Subscription, error) {
	var sub stream.Subscription
	spec := v
	if id, rest, ok := strings.Cut(v, "="); ok {
		sub.ID = strings.TrimSpace(id)
		spec = rest
	}
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return sub, fmt.Errorf("subscription %q: want [id=]motif:delta[:phi]", v)
	}
	mo, err := motif.Parse(parts[0])
	if err != nil {
		return sub, fmt.Errorf("subscription %q: %w", v, err)
	}
	delta, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
	if err != nil || delta < 0 {
		return sub, fmt.Errorf("subscription %q: bad delta %q", v, parts[1])
	}
	phi := 0.0
	if len(parts) == 3 {
		phi, err = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil || phi < 0 {
			return sub, fmt.Errorf("subscription %q: bad phi %q", v, parts[2])
		}
	}
	sub.Motif = mo
	sub.Delta = delta
	sub.Phi = phi
	if sub.ID == "" {
		sub.ID = fmt.Sprintf("%s/%d/%g", mo.Name(), delta, phi)
	}
	return sub, nil
}

func main() {
	var subs subFlags
	var joins joinFlags
	var (
		addr     = flag.String("addr", ":8089", "listen address")
		wireAddr = flag.String("wire-addr", "", "also serve the binary wire-protocol ingest listener on this TCP address (e.g. :9089), advertised on /healthz; empty disables, except that -member always serves one (coordinators replicate over it only) and picks a free port")
		recent   = flag.Int("recent", 4096, "recent-detection ring capacity (GET /instances)")
		topk     = flag.Int("topk", 50, "retained best detections per subscription (GET /topk)")
		dataDir  = flag.String("data-dir", "", "durable mode: WAL + snapshot directory (empty: in-memory only)")
		fsync    = flag.Bool("fsync", false, "fsync the WAL after every acknowledged batch (with -data-dir)")
		snapEach = flag.Duration("snapshot-every", 5*time.Minute, "periodic snapshot interval (with -data-dir; 0 disables)")
		member   = flag.Bool("member", false, "cluster shard: start with no subscriptions and serve /cluster handoff endpoints")
		coord    = flag.Bool("cluster-coordinator", false, "coordinator: shard -sub set across members, broadcast ingest, scatter-gather queries")
		shards   = flag.Int("shards", 0, "coordinator: run N in-process member engines (per-shard data dirs under -data-dir)")
		histCap  = flag.Int("history-limit", 0, "coordinator: bound the failover history (the log's acked prefix) in events, cut on a timestamp (0: unlimited; bounds failover regeneration)")
		queueCap = flag.Int("queue-depth", 0, "coordinator: per-member replication queue depth in batches before ingest backpressures (0: default 128)")
		coalesce = flag.Int("coalesce-events", 0, "coordinator: max events folded into one member call when a replication backlog drains (0: default 2048)")
		pprofAdr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) for in-situ profiling of the ingest hot path; empty disables")
		logLevel = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		logFmt   = flag.String("log-format", "text", "structured log format: text or json")
		slowRnd  = flag.Duration("slow-round", 0, "warn when one finalize round exceeds this duration, with a per-stage breakdown (0 disables)")
		slowReq  = flag.Duration("slow-request", 0, "tail-sample HTTP requests slower than this: retain the trace in the flight recorder and warn with its trace ID (0 disables)")
		lagSLO   = flag.Duration("lag-slo", 0, "detection-lag SLO threshold: run the burn-rate watchdog, alert and degrade /healthz when lag past this burns the error budget too fast (0 disables)")
		sloTgt   = flag.Float64("lag-slo-target", 0.99, "SLO target good fraction for the burn-rate watchdog (with -lag-slo)")
		burnWarn = flag.Float64("slo-burn-warn", 2, "burn-rate multiple that trips the SLO watchdog when both the fast and slow windows exceed it (with -lag-slo)")
		version  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Var(&subs, "sub", `motif subscription "[id=]motif:delta[:phi]" (repeatable)`)
	flag.Var(&joins, "join", `coordinator: member daemon "id=http://host:port" (repeatable)`)
	flag.Parse()

	if *version {
		fmt.Printf("flowmotifd %s %s\n", obs.Version, runtime.Version())
		return
	}

	logger, err := newLogger(*logLevel, *logFmt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flowmotifd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *pprofAdr != "" {
		// Opt-in profiling endpoint on its own listener and mux, so the
		// profiler never rides on (or leaks through) the public API address.
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			logger.Info("pprof listening (opt-in; keep this address private)", "addr", *pprofAdr)
			ps := &http.Server{Addr: *pprofAdr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
			if err := ps.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	if *coord {
		// These configure the engine, store and wire listener of a single
		// daemon; a coordinator has none of them, so refuse rather than
		// silently ignore.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "slow-round", "lag-slo", "lag-slo-target", "slo-burn-warn", "snapshot-every", "wire-addr", "member":
				fmt.Fprintf(os.Stderr, "flowmotifd: -%s does not apply with -cluster-coordinator\n", f.Name)
				os.Exit(2)
			}
		})
		runCoordinator(coordOptions{
			addr: *addr, subs: subs, joins: joins, shards: *shards,
			recent: *recent, topk: *topk,
			dataDir: *dataDir, fsync: *fsync, histCap: *histCap,
			queueDepth: *queueCap, coalesce: *coalesce,
			logger: logger, slowReq: *slowReq,
		})
		return
	}

	if len(subs) == 0 && !*member {
		fmt.Fprintln(os.Stderr, `flowmotifd: at least one -sub required (or -member), e.g. -sub "M(3,3):600:5"`)
		flag.Usage()
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		Subs:        subs,
		Recent:      *recent,
		TopK:        *topk,
		DataDir:     *dataDir,
		SyncWrites:  *fsync,
		Member:      *member,
		Logger:      logger,
		SlowRound:   *slowRnd,
		SlowRequest: *slowReq,

		SLO: server.SLOConfig{
			LagSLO:    *lagSLO,
			LagTarget: *sloTgt,
			BurnWarn:  *burnWarn,
		},
	})
	if err != nil {
		fatal(logger, "startup failed", "err", err)
	}

	for _, sub := range srv.Engine().Subscriptions() {
		logger.Info("detector", "sub", sub.ID, "motif", fmt.Sprint(sub.Motif), "delta", sub.Delta, "phi", sub.Phi)
	}
	if *member {
		logger.Info("cluster member mode: awaiting subscription placement")
	}
	if *lagSLO > 0 {
		logger.Info("slo watchdog armed", "lag_slo", *lagSLO, "target", *sloTgt, "burn_warn", *burnWarn)
	}
	if srv.Durable() {
		rec := srv.Recovery()
		logger.Info("durable", "data_dir", *dataDir, "fsync", *fsync)
		if rec.FromSnapshot || rec.Replayed > 0 {
			logger.Info("recovered", "snapshot_seq", rec.SnapshotSeq,
				"snapshot_used", rec.FromSnapshot, "wal_events_replayed", rec.Replayed)
		}
	}
	if *member && *wireAddr == "" {
		// Replication reaches members over the wire protocol only; the
		// coordinator discovers the port from /healthz.
		*wireAddr = ":0"
	}
	if *wireAddr != "" {
		bound, err := srv.StartWire(*wireAddr)
		if err != nil {
			fatal(logger, "wire listener failed", "err", err)
		}
		logger.Info("wire protocol listening", "addr", bound)
	}

	stopSnaps := make(chan struct{})
	if srv.Durable() && *snapEach > 0 {
		go func() {
			tick := time.NewTicker(*snapEach)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if seq, err := srv.Snapshot(); err != nil {
						logger.Error("snapshot failed", "err", err)
					} else {
						logger.Info("snapshot", "seq", seq)
					}
				case <-stopSnaps:
					return
				}
			}
		}()
	}

	logger.Info("flowmotifd listening", "addr", *addr, "detectors", len(subs))
	serve(*addr, srv.Handler(), logger)
	close(stopSnaps)
	srv.StopWire()
	if srv.Durable() {
		// Flush a final snapshot so the next start replays no WAL tail.
		if err := srv.Close(); err != nil {
			logger.Error("final snapshot/close", "err", err)
		} else {
			logger.Info("final snapshot flushed")
		}
	}
	st := srv.Engine().Stats()
	logger.Info("final", "events_ingested", st.EventsIngested, "detections", st.Detections)
}

// serve runs the API on addr until SIGINT or SIGTERM, then shuts the
// listener down gracefully and returns.
func serve(addr string, h http.Handler, logger *slog.Logger) {
	hs := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		close(done)
	}()
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(logger, "serve failed", "err", err)
	}
	<-done
}

// coordOptions carries the cluster-coordinator role's flag set.
type coordOptions struct {
	addr       string
	subs       subFlags
	joins      joinFlags
	shards     int
	recent     int
	topk       int
	dataDir    string
	fsync      bool
	histCap    int
	queueDepth int
	coalesce   int
	logger     *slog.Logger
	slowReq    time.Duration
}

// runCoordinator starts the cluster-coordinator role: -shards in-process
// members and/or -join remote member daemons behind one coordinator
// serving the flowmotifd API, with pipelined (asynchronous) replication
// to the members.
func runCoordinator(o coordOptions) {
	addr, subs, joins, logger := o.addr, o.subs, o.joins, o.logger
	if len(subs) == 0 {
		fatal(logger, "coordinator needs at least one -sub")
	}
	if o.shards <= 0 && len(joins) == 0 {
		fatal(logger, "coordinator needs members: -shards N and/or -join id=url")
	}
	var members []cluster.Member
	var locals []*cluster.LocalMember
	for i := 0; i < o.shards; i++ {
		opts := cluster.LocalOptions{Recent: o.recent, TopK: o.topk, SyncWrites: o.fsync}
		if o.dataDir != "" {
			opts.DataDir = filepath.Join(o.dataDir, fmt.Sprintf("shard-%d", i))
		}
		lm, err := cluster.NewLocalMember(fmt.Sprintf("shard-%d", i), opts)
		if err != nil {
			fatal(logger, "shard start failed", "shard", i, "err", err)
		}
		members = append(members, lm)
		locals = append(locals, lm)
	}
	for _, j := range joins {
		members = append(members, cluster.NewHTTPMember(j.id, j.url, nil))
	}
	c, err := cluster.New(cluster.Config{
		Members:        members,
		Subs:           subs,
		HistoryLimit:   o.histCap,
		MaxPending:     o.queueDepth,
		CoalesceEvents: o.coalesce,
	})
	if err != nil {
		fatal(logger, "cluster start failed", "err", err)
	}
	for sub, owner := range c.Placement() {
		logger.Info("placed", "sub", sub, "member", owner)
	}
	if o.histCap <= 0 {
		logger.Warn("history unbounded: the coordinator log keeps the full stream in memory for lossless failover; bound it with -history-limit N (failover then regenerates from the newest N events, plus any sharing the first kept timestamp)")
	}

	cs := server.NewCoordinatorWith(c, server.CoordinatorConfig{
		Logger:      logger,
		SlowRequest: o.slowReq,
	})
	logger.Info("flowmotifd coordinator listening", "addr", addr,
		"members", len(members), "subscriptions", len(subs))
	serve(addr, cs.Handler(), logger)
	// Push every acknowledged batch through to the members before the
	// shard WALs close — an ingest ack means "durable in the log", so
	// shutdown must not strand the log's tail.
	if err := c.Drain(); err != nil {
		logger.Error("drain on shutdown", "err", err)
	}
	c.Close()
	for _, lm := range locals {
		if err := lm.Close(); err != nil {
			logger.Error("shard close", "shard", lm.ID(), "err", err)
		}
	}
	st := c.Stats()
	logger.Info("final", "events_replicated", st.Events, "moves", st.Moves, "downs", st.Downs)
}
