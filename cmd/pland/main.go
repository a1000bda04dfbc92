// Command pland serves mapping-schema planning and execution over HTTP. It
// fronts the pkg/assign SDK — the paper's constructive algorithms, the greedy
// baseline, and node-capped exact search, run in order behind a
// canonicalization cache — with a synchronous v1 API
// and an asynchronous v2 job API for the long-running instances (large n,
// tight q, exact solves) a blocking request/response call cannot serve.
//
// Endpoints:
//
//	POST   /v1/plan          {"problem":"A2A","capacity":10,"sizes":[3,3,2,2,4,1]}
//	                         {"problem":"X2Y","capacity":10,"x_sizes":[7,2,1],"y_sizes":[1,2,1,1]}
//	POST   /v1/execute       {"problem":"A2A","capacity":10,"inputs":["aaa","bbb","cc","d"]}
//	                         plan-and-run: plans the instance (input sizes are
//	                         the payload byte lengths), executes the schema on
//	                         the MapReduce engine, returns the audited run
//	POST   /v2/jobs          {"type":"plan","plan":{...}} or
//	                         {"type":"execute","execute":{...}} — submit an
//	                         async job onto the bounded queue (202, or 429
//	                         when the queue is full)
//	GET    /v2/jobs/{id}     poll job status and, once succeeded, the result
//	DELETE /v2/jobs/{id}     cancel a queued or running job
//	POST   /v2/sessions      {"capacity":20,"sizes":[5,3,7]} — open a live
//	                         session: a continuously-maintained assignment
//	                         that absorbs add/remove/resize deltas by bounded
//	                         local repair and replans in the background
//	GET    /v2/sessions      list live sessions
//	PATCH  /v2/sessions/{id} {"deltas":[{"op":"add","size":4},
//	                         {"op":"remove","id":2},
//	                         {"op":"resize","id":0,"size":9}]} — apply a
//	                         delta batch; when drift passes the threshold a
//	                         "rebuild" job is scheduled on the v2 job queue
//	GET    /v2/sessions/{id} current schema, stable input IDs, drift stats
//	DELETE /v2/sessions/{id} close the session
//	GET    /v1/stats         cache, solver-win, job-queue, and session counters
//	GET    /healthz          liveness probe (200 even while draining)
//	GET    /readyz           readiness probe: 503 before boot recovery
//	                         finished and from the moment a drain starts;
//	                         fleet peers probe it to route around this node
//	POST   /internal/handoff a draining fleet peer ships one live session
//	                         here; installed once its fingerprint verifies
//	GET    /internal/cache/{key} this node's shard of the fleet plan cache:
//	PUT    /internal/cache/{key} a canonical plan by canonical instance key,
//	                         probed and published by peers
//	GET    /metrics          Prometheus text exposition of every pland series
//	GET    /debug/traces     retained-trace summaries from the flight recorder
//	                         (?route=, ?status=error, ?min_ms=, ?limit=)
//	GET    /debug/traces/{id} one trace's span trees — merged from every fleet
//	                         node unless ?local=1; ?format=chrome renders
//	                         Chrome trace-event JSON for Perfetto
//	GET    /debug/pprof/     runtime profiles; all three debug surfaces move
//	                         to the separate -debug-addr listener when one is
//	                         given
//
// Every response carries an X-Request-ID header (client-provided or
// generated) that the structured request log echoes, so one failing call can
// be found in the logs from its response alone.
//
// Every request is also traced: the middleware parses an inbound W3C
// traceparent header (minting a fresh trace otherwise), handlers hang child
// spans off the request span, and every outbound fleet call re-injects the
// header, so one client call is one trace across every node it touches. The
// flight recorder retains completed traces tail-based — errored and
// slower-than -trace-slow traces always, a -trace-sample fraction of the
// rest — in a fixed -trace-buffer ring served by /debug/traces.
//
// Every error is the same JSON envelope: {"error":{"code":"...","message":"..."}}.
//
// The list above is for people; routes.go is the table the service is built
// from, and a test holds the two together.
//
// Example:
//
//	pland -addr :8080 -cache 8192 -max-timeout 5s -job-workers 4
//	curl -s localhost:8080/v1/plan -d '{"problem":"A2A","capacity":10,"sizes":[3,3,2,2,4,1]}'
//	curl -s localhost:8080/v2/jobs -d '{"type":"plan","plan":{"problem":"A2A","capacity":10,"sizes":[3,3,2,2,4,1]}}'
//	curl -s localhost:8080/v2/jobs/<id>
//
// On SIGINT/SIGTERM pland stops accepting work, drains in-flight requests
// and jobs for up to -drain, and marks whatever could not finish as failed
// with a shutdown reason rather than dropping it.
//
// With -data-dir, sessions and queued v2 jobs survive restarts and crashes:
// every applied session delta and accepted job is journaled to a write-ahead
// log under the directory (-fsync picks the durability/latency trade-off),
// periodic checkpoints keep the log compact, and the next boot replays the
// log — fingerprint-verified and audited — before the listener opens.
//
// With -peers (and -self), the node joins a static fleet: session and job
// keys place onto nodes by consistent hashing, every node serves its own
// keys and transparently proxies the rest to their owner (routing around
// peers whose /readyz stops answering), plan results are cached fleet-wide
// at each canonical key's owner, and a graceful drain hands live sessions to
// their ring successors — fingerprint-verified on arrival — before the
// process exits. See cluster.go and internal/shard.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/wal"
	"repro/pkg/assign"
)

// splitPeers parses the -peers list: comma-separated base URLs, whitespace
// tolerated, trailing slashes normalized away so ring membership and -self
// compare exactly.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("pland", flag.ContinueOnError)
	// Every limit is a field of the server's config, bound here onto a copy
	// of its defaults; what is left are the flags main itself acts on.
	cfg := defaultServerConfig()
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		cacheSize  = fs.Int("cache", assign.DefaultCacheEntries, "canonical plan cache capacity (0 disables)")
		drain      = fs.Duration("drain", 30*time.Second, "shutdown drain deadline for in-flight requests and jobs")
		drainGrace = fs.Duration("drain-grace", time.Second, "pause after /readyz flips to 503 before the listener closes, so peers stop forwarding here (clustered only)")
		logFormat  = fs.String("log-format", "text", `log output format: "text" or "json"`)
	)
	fs.DurationVar(&cfg.MaxTimeout, "max-timeout", cfg.MaxTimeout, "longest a synchronous request may take")
	fs.Int64Var(&cfg.MaxBodyBytes, "max-body", cfg.MaxBodyBytes, "largest accepted request body in bytes")
	fs.IntVar(&cfg.MaxInputs, "max-inputs", cfg.MaxInputs, "largest accepted instance size (total inputs)")
	fs.IntVar(&cfg.MaxExecInputs, "max-exec-inputs", cfg.MaxExecInputs, "largest instance execute runs (pair work is quadratic)")
	fs.IntVar(&cfg.JobWorkers, "job-workers", cfg.JobWorkers, "v2 job worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.QueueDepth, "queue-depth", cfg.QueueDepth, "v2 job queue depth; beyond it submits get 429")
	fs.DurationVar(&cfg.ResultTTL, "result-ttl", cfg.ResultTTL, "how long finished v2 job results are retained for polling")
	fs.DurationVar(&cfg.MaxJobTimeout, "max-job-timeout", cfg.MaxJobTimeout, "longest a v2 job may take")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", cfg.MaxSessions, "largest number of live v2 sessions")
	fs.IntVar(&cfg.MaxSessionInputs, "max-session-inputs", cfg.MaxSessionInputs, "largest live input count per session")
	fs.StringVar(&cfg.DebugAddr, "debug-addr", cfg.DebugAddr, "separate listener for /metrics, /debug/pprof, and /debug/traces (default: served on -addr)")
	fs.StringVar(&cfg.DataDir, "data-dir", cfg.DataDir, "directory for the durability WAL; empty runs in-memory only")
	fs.Func("fsync", `WAL fsync policy: "always", "interval", or "never" (default "`+cfg.Fsync.String()+`")`, func(v string) (err error) {
		cfg.Fsync, err = wal.ParsePolicy(v)
		return err
	})
	fs.DurationVar(&cfg.FsyncInterval, "fsync-interval", cfg.FsyncInterval, "fsync cadence under -fsync=interval")
	fs.DurationVar(&cfg.CheckpointInterval, "checkpoint-interval", cfg.CheckpointInterval, "WAL snapshot-checkpoint and compaction cadence")
	fs.StringVar(&cfg.Self, "self", cfg.Self, "this node's advertised base URL in a -peers fleet (e.g. http://10.0.0.1:8080)")
	fs.Func("peers", "comma-separated base URLs of every fleet node including this one; empty runs single-node", func(v string) error {
		cfg.Peers = splitPeers(v)
		return nil
	})
	fs.DurationVar(&cfg.HealthInterval, "health-interval", cfg.HealthInterval, "peer readiness probe cadence")
	fs.IntVar(&cfg.HealthFailAfter, "health-fail", cfg.HealthFailAfter, "consecutive failed probes before a peer is routed around")
	fs.IntVar(&cfg.FleetCacheEntries, "fleet-cache", cfg.FleetCacheEntries, "fleet plan-cache shard capacity in entries (0 = default)")
	fs.Float64Var(&cfg.TraceSampleRate, "trace-sample", cfg.TraceSampleRate, "fraction of fast successful traces the flight recorder keeps (errored/slow traces are always kept)")
	fs.DurationVar(&cfg.TraceSlow, "trace-slow", cfg.TraceSlow, "latency at or above which a trace is always retained")
	fs.IntVar(&cfg.TraceBufferEntries, "trace-buffer", cfg.TraceBufferEntries, "flight-recorder capacity in retained traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	switch *logFormat {
	case "text":
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fmt.Fprintf(os.Stderr, "pland: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(2)
	}
	logger := cfg.Logger
	slog.SetDefault(logger)
	entries := *cacheSize
	if entries == 0 {
		entries = -1 // PlannerConfig uses negative to disable, 0 for the default
	}
	pl := assign.NewPlanner(assign.PlannerConfig{CacheEntries: entries})
	// With -data-dir, whatever a previous process journaled is recovered,
	// verified, and audited here, before the listener opens.
	srv, err := newDurableServer(pl, cfg)
	if err != nil {
		logger.Error("starting server", "dir", cfg.DataDir, "error", err)
		os.Exit(1)
	}
	if srv.cluster != nil {
		srv.cluster.health.Start()
		logger.Info("cluster member", "self", cfg.Self, "peers", strings.Join(cfg.Peers, ","),
			"health_interval", cfg.HealthInterval, "health_fail", cfg.HealthFailAfter)
	}
	logger.Info("listening", "addr", *addr, "cache_entries", *cacheSize,
		"max_timeout", cfg.MaxTimeout, "queue_depth", cfg.QueueDepth,
		"data_dir", cfg.DataDir, "fsync", cfg.Fsync.String())
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		// Size the write deadline from the effective MaxTimeout so a request
		// that takes all of it can still deliver its response.
		WriteTimeout: srv.cfg.MaxTimeout + 30*time.Second,
		IdleTimeout:  2 * time.Minute,
	}

	// The debug listener serves /metrics and pprof away from API traffic so
	// a scrape or a profile never competes with a solve for the API port.
	var ds *http.Server
	if cfg.DebugAddr != "" {
		ds = &http.Server{
			Addr:              cfg.DebugAddr,
			Handler:           srv.debugMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		logger.Info("debug listener", "addr", cfg.DebugAddr)
		go func() {
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	select {
	case err := <-serveErr:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain
	logger.Info("shutdown signal received", "drain", *drain)
	// Drain sequence: flip /readyz to 503 first so peer probes (and load
	// balancers) steer traffic away, give them -drain-grace to notice while
	// the listener still serves, then stop accepting, hand every live session
	// to its ring successor, and only then tear the rest down.
	srv.startDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if srv.cluster != nil {
		time.Sleep(*drainGrace)
	}
	if err := hs.Shutdown(dctx); err != nil {
		logger.Warn("http drain", "error", err)
	}
	if srv.cluster != nil {
		srv.handoffSessions(dctx)
		srv.cluster.health.Stop()
	}
	if err := srv.Close(dctx); err != nil {
		logger.Warn("job drain; unfinished jobs marked failed", "error", err)
	}
	if ds != nil {
		if err := ds.Shutdown(dctx); err != nil {
			logger.Warn("debug listener drain", "error", err)
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve failed", "error", err)
	}
	logger.Info("bye")
}
