// Command loadgen drives a pland fleet with a mixed workload and reports
// latency quantiles, throughput, and loss, gating the run for CI use.
//
// It speaks to one node or a whole ring; with several -targets it
// round-robins traffic and retries transport-class failures on the other
// nodes, so a node draining away mid-run shows up as latency, not as a
// failed run. The churn op is the durability probe: it creates a session,
// mutates it, and keeps reading it back — an acknowledged session that stays
// 404 past -lost-timeout is counted as lost, and -require-zero-lost turns
// any loss into a non-zero exit.
//
// Examples:
//
//	loadgen -targets http://a:8080,http://b:8080 -duration 30s
//	loadgen -targets http://a:8080 -rate 100 -mix plan=8,churn=2 \
//	    -max-p99 250ms -max-error-rate 0.01 -require-zero-lost
//
// The JSON report goes to stdout (or -out); gates violations are listed in
// it and exit the process with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/pkg/assign"
)

func main() {
	var (
		targets     = flag.String("targets", "http://localhost:8080", "comma-separated pland base URLs")
		mix         = flag.String("mix", "plan=6,execute=2,churn=2", "traffic mix as op=weight terms (plan, execute, churn)")
		rate        = flag.Float64("rate", 20, "ops started per second (open loop)")
		duration    = flag.Duration("duration", 10*time.Second, "run length")
		capacity    = flag.Int64("capacity", 64, "reducer capacity q of generated instances")
		inputs      = flag.Int("inputs", 12, "inputs per generated instance")
		seed        = flag.Int64("seed", 1, "RNG seed for the generated instances")
		opTimeout   = flag.Duration("op-timeout", 10*time.Second, "per-attempt timeout")
		lostTimeout = flag.Duration("lost-timeout", 3*time.Second, "how long churn re-polls a 404 session before declaring it lost")

		maxP99       = flag.Duration("max-p99", 0, "fail the run when op p99 exceeds this (0 = no gate)")
		maxErrorRate = flag.Float64("max-error-rate", -1, "fail the run when the error fraction exceeds this (negative = no gate)")
		zeroLost     = flag.Bool("require-zero-lost", false, "fail the run when any session is lost")

		out     = flag.String("out", "", "write the JSON report here instead of stdout")
		verbose = flag.Bool("v", false, "log each failed op")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	mixMap, err := parseMix(*mix)
	if err != nil {
		log.Error("bad -mix", "error", err)
		os.Exit(2)
	}
	cfg := loadConfig{
		Targets:         splitTargets(*targets),
		Mix:             mixMap,
		Rate:            *rate,
		Duration:        *duration,
		Capacity:        assign.Size(*capacity),
		Inputs:          *inputs,
		Seed:            *seed,
		OpTimeout:       *opTimeout,
		LostTimeout:     *lostTimeout,
		MaxP99:          *maxP99,
		MaxErrorRate:    *maxErrorRate,
		RequireZeroLost: *zeroLost,
		Log:             log,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Info("load starting", "targets", cfg.Targets, "mix", *mix,
		"duration", cfg.Duration, "rate", cfg.Rate)
	report, err := runLoad(ctx, cfg)
	if err != nil {
		log.Error("load failed", "error", err)
		os.Exit(2)
	}

	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Error("encoding report", "error", err)
		os.Exit(2)
	}
	doc = append(doc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			log.Error("writing report", "error", err)
			os.Exit(2)
		}
	} else {
		os.Stdout.Write(doc)
	}
	log.Info("load finished", "requests", report.Requests, "errors", report.Errors,
		"lost", report.Lost, "p99_ms", fmt.Sprintf("%.1f", report.P99MS),
		"rps", fmt.Sprintf("%.1f", report.Throughput))
	if len(report.Violations) > 0 {
		for _, v := range report.Violations {
			log.Error("gate violated", "gate", v)
		}
		// Quote the sampled failures' correlation identity so the violation is
		// immediately chaseable: grep the request ID in the fleet's logs, pull
		// the trace from GET /debug/traces/{trace_id}.
		for _, f := range report.FailedOps {
			log.Error("failed op", "op", f.Op, "request_id", f.RequestID,
				"trace_id", f.TraceID, "error", f.Error)
		}
		os.Exit(1)
	}
}

// splitTargets parses the -targets list, dropping empties and trailing
// slashes the same way pland's own -peers flag does.
func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		t = strings.TrimRight(strings.TrimSpace(t), "/")
		if t != "" {
			out = append(out, t)
		}
	}
	return out
}
