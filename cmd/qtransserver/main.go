// Command qtransserver serves the engine over TCP: the length-framed
// binary protocol of internal/server in front of a qtrans.Service
// batcher (§VI-D's online-processing regime as a network system).
//
// Usage:
//
//	qtransserver [-addr :7070] [-workers N] [-pipeline] [-maxbatch N]
//	             [-target-latency D] [-highwater N]
//	             [-maxscan N] [-shards N] [-autoshard]
//	             [-tiered DIR] [-tiered-budget N]
//	             [-metrics-addr HOST:PORT]
//
// On start it prints one line, "listening on HOST:PORT", to stdout.
// SIGINT/SIGTERM trigger a graceful drain: stop accepting, refuse new
// requests with a draining status, answer every accepted request, then
// exit after printing a final counters line:
//
//	drained accepted=N responses=N shed=N drainrefused=N
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/qtrans"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qtransserver:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("qtransserver", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7070", "TCP listen address (host:port; port 0 = ephemeral)")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "BSP worker threads")
		pipeline   = fs.Bool("pipeline", false, "two-stage pipelined batch execution")
		maxBatch   = fs.Int("maxbatch", 0, "batch size cap (0 = default 4096)")
		targetLat  = fs.Duration("target-latency", 0, "auto-tune batch size toward this processing latency (0 = off)")
		highWater  = fs.Int("highwater", 0, "shed requests while the dispatch backlog exceeds this many batches (0 = default 256)")
		maxScan    = fs.Int("maxscan", 0, "clamp scan row limits to this many rows (0 = default 65536)")
		drainGrace = fs.Duration("drain-grace", 30*time.Second, "graceful-drain deadline before connections are force-closed")
		metricsOn  = fs.String("metrics-addr", "", "also serve /metrics and /healthz over HTTP on this address (empty = off)")
		shards     = fs.Int("shards", 1, "range-partition the key space across N engines (1 = one shard, no split)")
		autoshard  = fs.Bool("autoshard", false, "traffic-aware autosharding: heat-weighted boundary moves over a fixed shard count (needs -shards > 1)")
		tieredDir  = fs.String("tiered", "", "cold-range tiering: spill cold key ranges to runs in this directory, bounding resident keys (empty = off; wiped on start)")
		tieredBud  = fs.Int("tiered-budget", 1<<20, "tiered resident key budget (needs -tiered)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers %d: need at least 1", *workers)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d: need at least 1", *shards)
	}
	if *maxBatch < 0 || *targetLat < 0 || *highWater < 0 || *maxScan < 0 {
		return fmt.Errorf("-maxbatch/-target-latency/-highwater/-maxscan must be non-negative")
	}
	if *drainGrace <= 0 {
		return fmt.Errorf("-drain-grace %v: must be positive", *drainGrace)
	}
	if *tieredDir == "" && *tieredBud != 1<<20 {
		return fmt.Errorf("-tiered-budget needs -tiered")
	}
	if *tieredDir != "" && *tieredBud < 1 {
		return fmt.Errorf("-tiered-budget %d: need at least 1", *tieredBud)
	}

	met := qtrans.NewMetrics()
	db, err := qtrans.Open(qtrans.Options{
		Workers:   *workers,
		Pipeline:  *pipeline,
		Shards:    *shards,
		Autoshard: qtrans.Autoshard{Enabled: *autoshard},
		Tiered:    qtrans.Tiered{Dir: *tieredDir, MaxResidentKeys: *tieredBud},
		Metrics:   met,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	svc := db.Serve(qtrans.ServiceOptions{
		MaxBatch:      *maxBatch,
		TargetLatency: *targetLat,
	})
	defer svc.Close()

	srv, err := server.New(server.Config{
		Batcher:     svc.Batcher(),
		HighWater:   *highWater,
		MaxScanRows: *maxScan,
		Metrics:     met,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *metricsOn != "" {
		bound, stop, err := db.ServeMetrics(*metricsOn)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(stdout, "metrics on %s\n", bound)
	}
	// Subscribe before announcing the port: whoever reads the line may
	// signal the moment its requests are answered.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	// The harness parses this line to discover an ephemeral port.
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "signal %v: draining\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil {
		return err
	}
	st := srv.Stats()
	// The harness parses this line for the accepted==responses check.
	fmt.Fprintf(stdout, "drained accepted=%d responses=%d shed=%d drainrefused=%d\n",
		st.Accepted, st.Responses, st.Shed, st.Drained)
	return nil
}
