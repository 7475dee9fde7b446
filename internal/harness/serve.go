package harness

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/stats"
)

// inprocConnCap bounds the in-process serve backend: each connection
// costs two descriptors (client and server end) in one process, so
// driving tens of thousands of connections requires ServerBin.
const inprocConnCap = 4000

// pipelineWindow is how many requests each connection keeps in flight
// before flushing and waiting (per-connection pipelining depth).
const pipelineWindow = 32

// latencySample records one in every latencySample op latencies.
const latencySample = 16

// serveBackend abstracts where the qtransserver under test runs: in
// this process (golden-test scale) or as a spawned binary (bench
// scale, its own fd budget).
type serveBackend interface {
	addr() string
	// stop drains the server gracefully and returns its final request
	// accounting (the accepted == responses invariant is checked by
	// the caller).
	stop() (accepted, responses, shed, drained int64, err error)
}

// servePhaseConfig is the per-row server tuning.
type servePhaseConfig struct {
	maxBatch  int
	highWater int
}

type inprocBackend struct {
	eng      *core.Engine
	b        *batcher.Batcher
	srv      *server.Server
	ln       net.Listener
	serveErr chan error
}

func (rn *Runner) newInprocBackend(pc servePhaseConfig) (*inprocBackend, error) {
	o := rn.Opts
	eng, err := core.NewEngine(core.EngineConfig{
		Mode:          core.IntraInter,
		Palm:          o.palmConfig(o.Workers, true),
		CacheCapacity: o.CacheCapacity,
		Metrics:       o.Metrics,
	})
	if err != nil {
		return nil, err
	}
	b := batcher.New(eng, batcher.Config{MaxBatch: pc.maxBatch, Metrics: o.Metrics})
	srv, err := server.New(server.Config{Batcher: b, HighWater: pc.highWater, Metrics: o.Metrics})
	if err != nil {
		b.Close()
		eng.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Close()
		eng.Close()
		return nil, err
	}
	be := &inprocBackend{eng: eng, b: b, srv: srv, ln: ln, serveErr: make(chan error, 1)}
	go func() { be.serveErr <- srv.Serve(ln) }()
	return be, nil
}

func (be *inprocBackend) addr() string { return be.ln.Addr().String() }

func (be *inprocBackend) stop() (accepted, responses, shed, drained int64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	err = be.srv.Shutdown(ctx)
	if serr := <-be.serveErr; err == nil {
		err = serr
	}
	st := be.srv.Stats()
	be.b.Close()
	be.eng.Close()
	return st.Accepted, st.Responses, st.Shed, st.Drained, err
}

type extBackend struct {
	cmd      *exec.Cmd
	bound    string
	lines    chan string
	scanDone chan error
}

func (rn *Runner) newExtBackend(pc servePhaseConfig) (*extBackend, error) {
	o := rn.Opts
	cmd := exec.Command(o.ServerBin,
		"-addr", "127.0.0.1:0",
		"-workers", fmt.Sprint(o.Workers),
		"-maxbatch", fmt.Sprint(pc.maxBatch),
		"-highwater", fmt.Sprint(pc.highWater),
		"-drain-grace", "120s",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	be := &extBackend{cmd: cmd, lines: make(chan string, 16), scanDone: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			be.lines <- sc.Text()
		}
		close(be.lines)
		be.scanDone <- sc.Err()
	}()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-be.lines:
			if !ok {
				cmd.Wait()
				return nil, fmt.Errorf("harness: %s exited before advertising its port", o.ServerBin)
			}
			if _, err := fmt.Sscanf(line, "listening on %s", &be.bound); err == nil {
				return be, nil
			}
		case <-deadline:
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("harness: %s never advertised its port", o.ServerBin)
		}
	}
}

func (be *extBackend) addr() string { return be.bound }

func (be *extBackend) stop() (accepted, responses, shed, drained int64, err error) {
	if err := be.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, 0, 0, err
	}
	found := false
	for line := range be.lines {
		if _, err := fmt.Sscanf(line, "drained accepted=%d responses=%d shed=%d drainrefused=%d",
			&accepted, &responses, &shed, &drained); err == nil {
			found = true
		}
	}
	if err := be.cmd.Wait(); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("harness: qtransserver: %w", err)
	}
	if !found {
		return 0, 0, 0, 0, fmt.Errorf("harness: qtransserver printed no drained counters line")
	}
	return accepted, responses, shed, drained, nil
}

func (rn *Runner) newServeBackend(pc servePhaseConfig) (serveBackend, error) {
	if rn.Opts.ServerBin != "" {
		return rn.newExtBackend(pc)
	}
	return rn.newInprocBackend(pc)
}

// phaseTotals aggregates what the client fleet observed in one phase.
type phaseTotals struct {
	ok, shed, drained, errs atomic.Int64
}

// serveClient drives one connection for one phase: pipelined windows
// of mixed point ops, statuses tallied, a sample of per-op round-trip
// latencies recorded. It stops after maxOps responses or on the first
// connection/drain event.
func serveClient(c *client.Client, id, maxOps int, tot *phaseTotals, lats *[]time.Duration) {
	defer c.Close()
	type slot struct {
		fut   *client.Future
		start time.Time
	}
	window := make([]slot, 0, pipelineWindow)
	drainWindow := func() bool {
		if len(window) == 0 {
			return true
		}
		if c.Flush() != nil {
			tot.errs.Add(int64(len(window)))
			window = window[:0]
			return false
		}
		alive := true
		for _, s := range window {
			resp, err := s.fut.Wait()
			if err != nil {
				tot.errs.Add(1)
				alive = false
				continue
			}
			if s.start != (time.Time{}) {
				*lats = append(*lats, time.Since(s.start))
			}
			switch resp.Status {
			case server.StatusOK:
				tot.ok.Add(1)
			case server.StatusShed:
				tot.shed.Add(1)
			case server.StatusDraining:
				tot.drained.Add(1)
				alive = false
			default:
				tot.errs.Add(1)
				alive = false
			}
		}
		window = window[:0]
		return alive
	}
	base := keys.Key(id) * 1_000_003
	for i := 0; i < maxOps; i++ {
		var q keys.Query
		switch i % 4 {
		case 0, 1:
			q = keys.Insert(base+keys.Key(i), keys.Value(i))
		case 2:
			q = keys.Search(base + keys.Key(i-1))
		default:
			q = keys.AddDelta(base, 1)
		}
		f, err := c.Do(q)
		if err != nil {
			tot.errs.Add(1)
			return
		}
		s := slot{fut: f}
		if i%latencySample == 0 {
			s.start = time.Now()
		}
		window = append(window, s)
		if len(window) == pipelineWindow {
			if !drainWindow() {
				return
			}
		}
	}
	drainWindow()
}

// dialRetry dials with exponential backoff: under a many-thousand
// connection ramp the listen backlog (somaxconn) overflows transiently.
func dialRetry(addr string) (*client.Client, error) {
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		var c *client.Client
		if c, err = client.Dial(addr); err == nil {
			return c, nil
		}
		time.Sleep(time.Duration(1<<attempt) * 2 * time.Millisecond)
	}
	return nil, err
}

// runServePhase stands up one server, drives the fleet against it,
// optionally triggers the drain mid-load, and emits one row.
func (rn *Runner) runServePhase(w io.Writer, name string, pc servePhaseConfig, conns, opsPerConn int, drainMid bool) error {
	be, err := rn.newServeBackend(pc)
	if err != nil {
		return err
	}
	var tot phaseTotals
	perConnLats := make([][]time.Duration, conns)
	// Ramp the fleet through a dial semaphore so the SYN backlog and
	// dial retries stay bounded, then let every connection run.
	sem := make(chan struct{}, 256)
	var wg sync.WaitGroup
	var dialErr atomic.Value
	var connected atomic.Int64
	allDialed := make(chan struct{})
	startGate := make(chan struct{})
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{} // bounds concurrent dial attempts only
			c, err := dialRetry(be.addr())
			<-sem
			if err != nil {
				dialErr.Store(err)
				if connected.Add(1) == int64(conns) {
					close(allDialed)
				}
				return
			}
			if connected.Add(1) == int64(conns) {
				close(allDialed)
			}
			// Hold the idle connection until the whole fleet is
			// assembled, so the phase's op traffic runs over genuinely
			// simultaneous connections rather than a rolling window of
			// short-lived ones.
			<-startGate
			serveClient(c, i, opsPerConn, &tot, &perConnLats[i])
		}(i)
	}
	// Release the fleet once fully assembled (the timeout covers a
	// fleet that lost members to dial errors — those surface below).
	select {
	case <-allDialed:
	case <-time.After(60 * time.Second):
	}
	close(startGate)
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()

	var stopErr error
	var accepted, responses, shed, drained int64
	if drainMid {
		// Shut down while the assembled fleet is mid-flight; remaining
		// clients see draining responses or EOFs and wind down.
		select {
		case <-clientsDone:
		case <-time.After(100 * time.Millisecond):
		}
		accepted, responses, shed, drained, stopErr = be.stop()
		<-clientsDone
	} else {
		<-clientsDone
		accepted, responses, shed, drained, stopErr = be.stop()
	}
	elapsed := time.Since(start)
	if stopErr != nil {
		return stopErr
	}
	if err, ok := dialErr.Load().(error); ok && err != nil {
		return fmt.Errorf("harness: serve client: %w", err)
	}
	if accepted != responses {
		return fmt.Errorf("harness: serve %s dropped requests: accepted %d, responses %d", name, accepted, responses)
	}

	var lat stats.LatencyRecorder
	var all []time.Duration
	for _, ls := range perConnLats {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, d := range all {
		lat.Record(d)
	}
	p50, p99 := time.Duration(0), time.Duration(0)
	if lat.Count() > 0 {
		p50, p99 = lat.Percentile(0.50), lat.Percentile(0.99)
	}
	// shed/drained come from the server's authoritative counters (a
	// client whose connection died early may miss some responses); ok
	// and errors are what the fleet observed.
	ok := tot.ok.Load()
	row(w, name, conns, accepted, ok, shed, drained, tot.errs.Load(),
		float64(elapsed.Seconds()), float64(ok)/elapsed.Seconds(),
		float64(p50.Microseconds()), float64(p99.Microseconds()))
	return nil
}

// ServeExp drives a fleet of concurrent TCP connections against the
// network front end (cmd/qtransserver) through three phases: steady
// load with admission control idle, deliberate overload that forces
// shedding (MaxBatch 1 floods the dispatch backlog past HighWater 1),
// and a graceful drain triggered mid-load. Every phase checks the
// server-side invariant accepted == responses: no accepted request is
// ever dropped without an answer. With Opts.ServerBin set the server
// runs as a separate process, giving client and server their own
// file-descriptor budgets (how `-serverbin` with `-conns 12000`
// reaches >= 10k concurrent connections under a 20k fd rlimit).
func ServeExp(rn *Runner, w io.Writer) error {
	o := rn.Opts
	conns := o.Conns
	if conns <= 0 {
		conns = scaleInt(50_000, o.Scale)
		if conns < 4 {
			conns = 4
		}
	}
	if o.ServerBin == "" && conns > inprocConnCap {
		return fmt.Errorf("harness: serve with %d conns needs -serverbin (in-process cap %d: two fds per conn)", conns, inprocConnCap)
	}
	opsPerConn := scaleInt(4_000_000, o.Scale) / conns
	if opsPerConn < 16 {
		opsPerConn = 16
	}
	row(w, "phase", "conns", "accepted", "ok", "shed", "drained", "errors", "elapsed_s", "qps", "p50_us", "p99_us")
	if err := rn.runServePhase(w, "steady", servePhaseConfig{maxBatch: 4096, highWater: 1 << 20}, conns, opsPerConn, false); err != nil {
		return err
	}
	if err := rn.runServePhase(w, "overload", servePhaseConfig{maxBatch: 1, highWater: 1}, conns, opsPerConn, false); err != nil {
		return err
	}
	return rn.runServePhase(w, "drain", servePhaseConfig{maxBatch: 4096, highWater: 1 << 20}, conns, opsPerConn*8, true)
}
