// ispyd is the I-SPY analysis service: a long-running HTTP server that
// answers miss-context analysis + coalescing + simulation requests over the
// same pipeline the batch harness (cmd/ispy) runs, hardened with
// per-request deadlines and an artifact-layer circuit breaker
// (internal/server, DESIGN.md §12).
//
// Usage:
//
//	ispyd serve [flags]     serve HTTP until SIGINT/SIGTERM, then drain
//	ispyd soak  [flags]     run the in-process chaos soak and exit
//
// Serve flags:
//
//	-addr A        listen address (default 127.0.0.1:7925)
//	-cache-dir D   persist artifacts in D across requests
//	-jobs N        worker-pool size shared by all requests
//	-instrs N      default measured instruction budget per request
//	-max-timeout D hard per-request deadline cap (default 2m)
//	-drain D       drain budget after SIGTERM before in-flight work is cut (default 30s)
//	-faults S      arm deterministic chaos at tagged sites (testing)
//	-fault-seed N  seed for -faults decisions
//
// Soak flags (additionally):
//
//	-workers N     concurrent chaos clients (default 4)
//	-requests N    requests per worker (default 6)
//	-apps a,b      apps to cycle over
//	-scenario S    also cycle a multi-tenant scenario spec (docs/WORKLOADS.md)
//
// Endpoints: POST /v1/analyze ({"app"|"scenario","instrs","timeout_millis"}),
// POST /v1/profile/analyze (traceio profile bytes, as written by
// `ispy-profile collect`), GET /healthz, /readyz, /statusz.
//
// Exit codes: 0 — clean serve shutdown / every soak invariant held; 1 — a
// serve failure or a soak invariant violation; 2 — usage or configuration
// error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ispy/internal/experiments"
	"ispy/internal/faults"
	"ispy/internal/server"
	"ispy/internal/workload"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain is the whole CLI behind a single exit path; nothing in this
// package calls os.Exit except main itself.
func realMain(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		usage(stderr)
		return exitUsage
	}
	cmd, rest := argv[0], argv[1:]

	fs := flag.NewFlagSet("ispyd "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7925", "listen address")
	cacheDir := fs.String("cache-dir", "", "artifact cache directory (shared across requests)")
	jobs := fs.Int("jobs", 0, "worker-pool size (default: GOMAXPROCS)")
	instrs := fs.Uint64("instrs", 0, "default measured instruction budget per request")
	maxTimeout := fs.Duration("max-timeout", 0, "per-request deadline cap (default 2m)")
	drain := fs.Duration("drain", 30*time.Second, "drain budget after SIGTERM")
	faultSpec := fs.String("faults", "", "fault-injection spec: pattern=kind[:prob],... (testing)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for -faults decisions")
	workers := fs.Int("workers", 4, "soak: concurrent chaos clients")
	requests := fs.Int("requests", 6, "soak: requests per worker")
	apps := fs.String("apps", "", "soak: comma-separated apps to cycle over")
	scenario := fs.String("scenario", "", "soak: multi-tenant scenario spec to cycle (see docs/WORKLOADS.md)")
	if err := fs.Parse(rest); err != nil {
		return exitUsage
	}

	cfg := server.Config{
		CacheDir:   *cacheDir,
		Jobs:       *jobs,
		MaxTimeout: *maxTimeout,
		Log:        stderr,
	}
	if *instrs != 0 {
		cfg.Lab = experiments.QuickConfig().WithMeasureInstrs(*instrs)
	}

	switch cmd {
	case "serve":
		if *faultSpec != "" {
			inj, err := faults.ParseSpec(*faultSeed, *faultSpec)
			if err != nil {
				fmt.Fprintf(stderr, "ispyd: %v\n", err)
				return exitUsage
			}
			cfg.Faults = inj
		}
		return serve(cfg, *addr, *drain, stdout, stderr)
	case "soak":
		return soak(cfg, server.SoakConfig{
			Apps:              workload.ParseApps(*apps),
			Scenario:          *scenario,
			Workers:           *workers,
			RequestsPerWorker: *requests,
			Instrs:            *instrs,
			FaultSpec:         *faultSpec,
			Seed:              *faultSeed,
			Out:               stderr,
		}, stdout, stderr)
	default:
		usage(stderr)
		return exitUsage
	}
}

// serve runs the service until SIGINT/SIGTERM, then drains: readiness flips
// first, in-flight requests finish within the drain budget, and a clean
// drain exits 0.
func serve(cfg server.Config, addr string, drain time.Duration, stdout, stderr io.Writer) int {
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ispyd: %v\n", err)
		return exitUsage
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "ispyd: %v\n", err)
		return exitUsage
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "ispyd: serving on http://%s\n", l.Addr())
	if err := s.Serve(ctx, l, drain); err != nil {
		fmt.Fprintf(stderr, "ispyd: serve: %v\n", err)
		return exitFailure
	}
	fmt.Fprintf(stdout, "ispyd: drained; %s\n", s.Requests().Snapshot().Summary())
	return exitOK
}

// soak runs the chaos harness and renders its report. Exit 0 means every
// graceful-degradation invariant held; 1 names the first violation.
func soak(cfg server.Config, sc server.SoakConfig, stdout, stderr io.Writer) int {
	if sc.FaultSpec == "" {
		// A soak without chaos proves nothing; pick the default storm.
		sc.FaultSpec = "artifacts.read=corrupt:0.3,artifacts.write=short:0.3," +
			"compute/base/*=panic:0.2,compute/prepared/*=latency:0.5"
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := server.Soak(ctx, cfg, sc)
	if rep != nil {
		fmt.Fprintf(stdout, "soak: %d requests: %d canonical, %d graceful errors; %d faults fired\n",
			rep.Requests, rep.OK, rep.Degraded, rep.FaultsHit)
		if r := rep.Reference; r != nil {
			fmt.Fprintf(stdout, "soak: reference %s @ %d instrs: baseline %d cycles / %d misses → "+
				"ispy %d cycles / %d misses (%.3fx), %d prefetches (%d conditional, %d coalesced), "+
				"%d/%d misses planned (%d uncovered), %d prefetch instrs issuing %d lines, "+
				"stall %d → %d cycles over %d/%d instrs\n",
				r.App, r.Instrs, r.Baseline.Cycles, r.Baseline.L1IMisses,
				r.ISPY.Cycles, r.ISPY.L1IMisses, r.Speedup,
				r.Plan.Prefetches, r.Plan.Conditional, r.Plan.Coalesced,
				r.Plan.MissesPlanned, r.Plan.MissesTotal, r.Plan.MissesUncovered,
				r.ISPY.PrefetchInstrs, r.ISPY.PrefetchLinesIssued,
				r.Baseline.StallCycles, r.ISPY.StallCycles,
				r.Baseline.Instrs, r.ISPY.Instrs)
		}
		if r := rep.Scenario; r != nil {
			fmt.Fprintf(stdout, "soak: scenario %q @ %d instrs: baseline %d misses → ispy %d (%.3fx speedup)\n",
				r.Scenario, r.Instrs, r.Baseline.L1IMisses, r.ISPY.L1IMisses, r.Speedup)
			rows := append(append([]server.TenantSummary{}, r.Tenants...), r.SLOClasses...)
			for _, t := range rows {
				label := t.Name
				if t.App != "" {
					label += " (" + t.App + ")"
				}
				fmt.Fprintf(stdout, "soak:   %-28s slo=%-12s requests=%-4d mpki %.3f → %.3f\n",
					label, t.SLO, t.Requests, t.BaseMPKI, t.ISPYMPKI)
			}
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(stderr, "soak: violation: %s\n", v)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "ispyd: %v\n", err)
		if strings.Contains(err.Error(), "duplicate clause") || strings.Contains(err.Error(), "not pattern=") {
			return exitUsage
		}
		return exitFailure
	}
	fmt.Fprintln(stdout, "soak: PASS — all graceful-degradation invariants held")
	return exitOK
}

func usage(stderr io.Writer) {
	fmt.Fprint(stderr, `ispyd — the I-SPY analysis service

usage:
  ispyd serve [flags]   serve HTTP until SIGINT/SIGTERM, then drain
  ispyd soak  [flags]   run the in-process chaos soak and exit

exit codes: 0 clean shutdown / soak passed; 1 failure or invariant
violation; 2 usage error

run "ispyd serve -h" or "ispyd soak -h" for flags
`)
}
