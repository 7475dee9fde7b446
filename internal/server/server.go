package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batcher"
	"repro/internal/keys"
	"repro/internal/metrics"
)

// Config tunes a Server. Batcher is the only required field.
type Config struct {
	// Batcher receives every admitted query. The server does not own
	// it: Shutdown drains the server's connections but leaves the
	// batcher open (callers typically Close it right after Shutdown
	// returns).
	Batcher *batcher.Batcher
	// HighWater is the admission-control threshold: a request arriving
	// while the batcher's dispatch backlog (dispatched-but-unprocessed
	// batches, batcher.Load's second value) exceeds HighWater is
	// answered StatusShed without executing (<= 0: 256).
	HighWater int
	// MaxScanRows clamps the row limit of every admitted scan so one
	// response frame stays far below MaxFrameLen; a scan with no limit
	// or a larger one gets this limit instead (<= 0: 65536).
	MaxScanRows int
	// QueueDepth bounds each connection's pipeline of submitted-but-
	// unanswered requests; a reader that gets this far ahead of its
	// writer blocks, pushing backpressure into the socket (<= 0: 512).
	QueueDepth int
	// Metrics, when non-nil, receives the server_* counters and the
	// server_connections gauge alongside the Stats() atomics.
	Metrics *metrics.Registry
}

// Stats is a point-in-time copy of the server's request accounting.
// Accepted counts request frames that decoded successfully; every
// accepted request produces exactly one response, so after a clean
// Shutdown Responses == Accepted (Shed and Drained count the subsets
// answered StatusShed/StatusDraining without executing).
type Stats struct {
	// Accepted is the number of successfully decoded request frames.
	Accepted int64
	// Responses is the number of response frames written back.
	Responses int64
	// Shed is the number of requests refused by admission control.
	Shed int64
	// Drained is the number of requests refused because of shutdown.
	Drained int64
	// Conns is the number of currently open connections.
	Conns int64
}

// Server multiplexes TCP connections into a Batcher: one reader and
// one writer goroutine per connection, requests pipelined in order
// through a bounded per-connection queue. See the package comment for
// the admission-control and drain behavior.
type Server struct {
	cfg       Config
	highWater int
	maxScan   keys.Value
	queueCap  int

	accepted  atomic.Int64
	responses atomic.Int64
	shed      atomic.Int64
	drained   atomic.Int64
	nconns    atomic.Int64

	mAccepted  *metrics.Counter
	mResponses *metrics.Counter
	mShed      *metrics.Counter
	mDrained   *metrics.Counter
	mConns     *metrics.Gauge

	draining atomic.Bool
	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
}

// New builds a Server over cfg.Batcher. It does not listen; call
// Serve with a net.Listener.
func New(cfg Config) (*Server, error) {
	if cfg.Batcher == nil {
		return nil, errors.New("server: Config.Batcher is required")
	}
	s := &Server{
		cfg:       cfg,
		highWater: cfg.HighWater,
		maxScan:   keys.Value(cfg.MaxScanRows),
		queueCap:  cfg.QueueDepth,
		conns:     make(map[net.Conn]struct{}),
	}
	if s.highWater <= 0 {
		s.highWater = 256
	}
	if s.maxScan <= 0 {
		s.maxScan = 65536
	}
	if s.queueCap <= 0 {
		s.queueCap = 512
	}
	if cfg.Metrics != nil {
		s.mAccepted = cfg.Metrics.Counter("server_accepted_total")
		s.mResponses = cfg.Metrics.Counter("server_responses_total")
		s.mShed = cfg.Metrics.Counter("server_shed_total")
		s.mDrained = cfg.Metrics.Counter("server_drained_total")
		s.mConns = cfg.Metrics.Gauge("server_connections")
	}
	return s, nil
}

// Stats returns a snapshot of the request accounting.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:  s.accepted.Load(),
		Responses: s.responses.Load(),
		Shed:      s.shed.Load(),
		Drained:   s.drained.Load(),
		Conns:     s.nconns.Load(),
	}
}

// Serve accepts connections on ln until Shutdown closes it. It
// returns nil after a Shutdown-initiated stop, or the first
// non-recoverable accept error otherwise. Transient accept errors
// (e.g. fd exhaustion under a connection flood) are retried with a
// short backoff instead of killing the server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	// A Shutdown that ran before ln was registered closed nothing;
	// mutex ordering makes its draining flag visible here, so finish
	// its job. Either way Accept below fails fast with net.ErrClosed.
	if s.draining.Load() {
		ln.Close()
	}
	var consecutive int
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			if consecutive++; consecutive >= 200 {
				return err
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		consecutive = 0
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		// A connection that raced past a concurrent Shutdown's ln.Close
		// may have registered after the drain nudge already swept the
		// map; mutex ordering guarantees the flag is visible here, so
		// nudge it ourselves and wg.Wait covers it like any other.
		if s.draining.Load() {
			c.SetReadDeadline(time.Now())
		}
		n := s.nconns.Add(1)
		if s.mConns != nil {
			s.mConns.Set(n)
		}
		s.wg.Add(1)
		go s.handle(c)
	}
}

// pending is one in-order slot in a connection's response pipeline.
// A nil fut means the status was decided at admission (shed/drain).
type pending struct {
	id     uint64
	status Status
	scan   bool
	fut    *batcher.Future
}

func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	queue := make(chan pending, s.queueCap)
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		s.writeLoop(c, queue)
	}()
	s.readLoop(c, queue)
	close(queue)
	wwg.Wait()
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	n := s.nconns.Add(-1)
	if s.mConns != nil {
		s.mConns.Set(n)
	}
}

// readLoop decodes request frames and submits them, pushing one
// pending slot per accepted request into queue (order = response
// order). It exits on any read or decode error; during a drain the
// deadline nudge from Shutdown surfaces here as a read error.
func (s *Server) readLoop(c net.Conn, queue chan<- pending) {
	br := bufio.NewReaderSize(c, 4*1024)
	var scratch []byte
	for {
		body, buf, err := ReadFrame(br, scratch, ReqBodyLen)
		if err != nil {
			return
		}
		scratch = buf
		req, err := DecodeRequest(body)
		if err != nil {
			return
		}
		s.accepted.Add(1)
		if s.mAccepted != nil {
			s.mAccepted.Add(1)
		}
		queue <- s.admit(req)
	}
}

// admit runs admission control and submission for one request and
// returns its response slot. Order of checks: drain beats shed (a
// draining server refuses everything), shed consults the batcher's
// dispatch backlog — the congestion signal the unbounded hand-off keeps
// live even when the processor stalls.
func (s *Server) admit(req Request) pending {
	if s.draining.Load() {
		s.drained.Add(1)
		if s.mDrained != nil {
			s.mDrained.Add(1)
		}
		return pending{id: req.ID, status: StatusDraining}
	}
	if _, backlog := s.cfg.Batcher.Load(); backlog > s.highWater {
		s.shed.Add(1)
		if s.mShed != nil {
			s.mShed.Add(1)
		}
		return pending{id: req.ID, status: StatusShed}
	}
	q := req.Q
	if q.Op == keys.OpScan && (q.Value == 0 || q.Value > s.maxScan) {
		q.Value = s.maxScan
	}
	fut, err := s.cfg.Batcher.Submit(q)
	if err != nil {
		// The batcher closed under us (external Close): same client
		// contract as a drain refusal.
		s.drained.Add(1)
		if s.mDrained != nil {
			s.mDrained.Add(1)
		}
		return pending{id: req.ID, status: StatusDraining}
	}
	return pending{id: req.ID, status: StatusOK, scan: q.Op == keys.OpScan, fut: fut}
}

// writeLoop resolves each pending slot in order and writes its
// response frame, flushing whenever the pipeline goes idle. Every slot
// taken from queue is encoded and written exactly once; a write error
// stops the loop but keeps consuming slots so the reader never blocks
// on a dead writer.
func (s *Server) writeLoop(c net.Conn, queue <-chan pending) {
	bw := bufio.NewWriterSize(c, 4*1024)
	var frame []byte
	broken := false
	for p := range queue {
		resp := Response{ID: p.id, Status: p.status}
		if p.fut != nil {
			res, ok := p.fut.Get()
			resp.Recorded = ok
			resp.Found = res.Found
			resp.Value = res.Value
			if p.scan {
				resp.Rows, _ = p.fut.Rows()
			}
		}
		if broken {
			continue
		}
		frame = AppendResponse(frame[:0], resp)
		if _, err := bw.Write(frame); err != nil {
			broken = true
			continue
		}
		s.responses.Add(1)
		if s.mResponses != nil {
			s.mResponses.Add(1)
		}
		if len(queue) == 0 {
			if err := bw.Flush(); err != nil {
				broken = true
			}
		}
	}
	if !broken {
		bw.Flush()
	}
}

// Shutdown gracefully drains the server: stop accepting connections,
// refuse new requests with StatusDraining, wait for every
// already-submitted future to resolve, write a response for every
// accepted request, then close all connections. It returns nil
// once every connection goroutine has exited, or ctx.Err() if ctx
// expires first (connections are then force-closed). Shutdown is
// idempotent and safe to call concurrently with Serve.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Nudge readers parked in a blocking read: the deadline error ends
	// their read loop, which closes the pipeline queue, which lets the
	// writer finish answering and close the connection.
	now := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(now)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	// Writers may still be parked on futures; the batcher resolves them
	// on its own, and then the connection goroutines exit.
	<-done
	return ctx.Err()
}
