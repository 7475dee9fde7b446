package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/keys"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/qtrans"
)

// op is one scheduled request of the open loop; due is its send time as
// an offset from the start of the phase.
type op struct {
	q   keys.Query
	due time.Duration
}

// opResult is what came back for one op.
type opResult struct {
	lat  time.Duration // response time minus due time
	late time.Duration // how long after its due time the op was sent
	done time.Duration // completion offset from the start of the phase
	res  keys.Result
	has  bool // a point result was recorded (searches)
	ok   bool // executed: not failed, shed or refused
}

// sink is one caller's pipelined connection to the system under test:
// send queues an op and returns the function that waits for its answer.
type sink struct {
	send  func(q keys.Query) (wait func() (res keys.Result, has, ok bool), err error)
	flush func() error
}

// schedule draws one connection's ops for a phase of length d: Poisson
// arrivals at rate ops/s, keys from gen moved into the connection's own
// residue class so that connections never share a key and each one's
// answers can be checked in its own submission order.
func schedule(s spec, gen func() keys.Key, rng *rand.Rand, rate float64, d time.Duration, conn, conns int) []op {
	var ops []op
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return ops
		}
		k := gen()
		k = k - k%keys.Key(conns) + keys.Key(conn)
		q := keys.Search(k)
		if rng.Float64() < s.putFrac {
			q = keys.Insert(k, keys.Value(rng.Uint64()))
		}
		ops = append(ops, op{q: q, due: t})
	}
}

// openLoop sends every connection's ops at their due times, whatever
// the system's progress, and times each from its due time: one sender
// and one collector goroutine per connection. It also returns the time
// the due offsets count from.
func openLoop(sinks []sink, ops [][]op) ([][]opResult, time.Time) {
	out := make([][]opResult, len(sinks))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range sinks {
		out[c] = make([]opResult, len(ops[c]))
		// Sized to the number of sends so a slow collector never stalls
		// the sender.
		waits := make(chan func() (keys.Result, bool, bool), len(ops[c]))
		wg.Add(2)
		go func(sk sink, ops []op, res []opResult) { // sender
			defer wg.Done()
			defer close(waits)
			for i := 0; i < len(ops); {
				now := time.Since(start)
				if wait := ops[i].due - now; wait > 0 {
					sk.flush()
					// time.Sleep overshoots a short wait by about a
					// millisecond (the runtime's poller rounds up); the
					// kernel's own sleep does not.
					ts := syscall.NsecToTimespec(int64(wait))
					syscall.Nanosleep(&ts, nil)
					continue
				}
				res[i].late = now - ops[i].due
				wait, err := sk.send(ops[i].q)
				if err != nil {
					wait = func() (keys.Result, bool, bool) { return keys.Result{}, false, false }
				}
				waits <- wait
				i++
			}
			sk.flush()
		}(sinks[c], ops[c], out[c])
		go func(ops []op, res []opResult) { // collector: answers resolve in send order
			defer wg.Done()
			i := 0
			for wait := range waits {
				r := &res[i]
				r.res, r.has, r.ok = wait()
				r.done = time.Since(start)
				r.lat = r.done - ops[i].due
				i++
			}
		}(ops[c], out[c])
	}
	wg.Wait()
	return out, start
}

// front is the served stack: DB -> Service (batcher) -> TCP server, and
// one client connection per caller.
type front struct {
	svc      *qtrans.Service
	srv      *server.Server
	serveErr chan error
	clients  []*client.Client
}

func startFront(db *qtrans.DB, met *qtrans.Metrics, conns int) (*front, error) {
	f := &front{svc: db.Serve(qtrans.ServiceOptions{}), serveErr: make(chan error, 1)}
	var err error
	if f.srv, err = server.New(server.Config{Batcher: f.svc.Batcher(), Metrics: met}); err != nil {
		f.svc.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.svc.Close()
		return nil, err
	}
	go func() { f.serveErr <- f.srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			f.stop()
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	return f, nil
}

// stop closes the clients, drains the server and closes the service;
// it returns the server's request accounting.
func (f *front) stop() (server.Stats, error) {
	for _, c := range f.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if serr := <-f.serveErr; err == nil {
		err = serr
	}
	f.svc.Close()
	return f.srv.Stats(), err
}

func (f *front) sinks() []sink {
	out := make([]sink, len(f.clients))
	for i, c := range f.clients {
		out[i] = sink{
			send: func(q keys.Query) (func() (keys.Result, bool, bool), error) {
				fut, err := c.Do(q)
				if err != nil {
					return nil, err
				}
				return func() (keys.Result, bool, bool) {
					resp, err := fut.Wait()
					ok := err == nil && resp.Status == server.StatusOK
					return keys.Result{Value: resp.Value, Found: resp.Found}, resp.Recorded, ok
				}, nil
			},
			flush: c.Flush,
		}
	}
	return out
}

// servedEnv is a prefilled DB with its front end up and warmed.
type servedEnv struct {
	*env
	f     *front
	gens  []func() keys.Key
	rngs  []*rand.Rand
	setup time.Duration
}

func setUpServed(s spec, cfg config, met *qtrans.Metrics, m *mirror, tr *tracer) (*servedEnv, error) {
	e, err := setUp(s, cfg, met, m, tr)
	if err != nil {
		return nil, err
	}
	se := &servedEnv{env: e}
	for c := 0; c < cfg.workers; c++ {
		rng := rand.New(rand.NewSource(cfg.seed + int64(c) + 1))
		g := s.gen(s.keyRange)
		se.rngs = append(se.rngs, rng)
		se.gens = append(se.gens, func() keys.Key { return g.Key(rng) })
	}
	warm := se.schedules(cfg.measure / 20)
	sp := tr.begin("front+warmup", -1, 0)
	t0 := time.Now()
	if se.f, err = startFront(e.db, met, cfg.workers); err != nil {
		e.close()
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	res, _ := openLoop(se.f.sinks(), warm)
	se.setup = e.open + e.prefill + time.Since(t0)
	tr.end(sp)
	se.mirrorOps(warm, res, false)
	return se, nil
}

func (se *servedEnv) schedules(d time.Duration) [][]op {
	n := len(se.gens)
	out := make([][]op, n)
	for c := range out {
		out[c] = schedule(se.s, se.gens[c], se.rngs[c], se.s.rate/float64(n), d, c, n)
	}
	return out
}

// dropDB closes the DB and lets go of everything that refers to it.
func (se *servedEnv) dropDB() {
	se.db.Close()
	se.db, se.f = nil, nil
}

// mirrorOps replays each connection's ops through the oracle in send
// order (connections own disjoint keys) and compares every answer.
func (se *servedEnv) mirrorOps(ops [][]op, res [][]opResult, measured bool) {
	m := se.m
	if m == nil {
		return
	}
	for c := range ops {
		m.rs.Reset(1)
		for i, o := range ops[c] {
			if measured {
				m.attempted++
			}
			r := res[c][i]
			if !r.ok {
				m.fail("conn %d op %d %v: failed, shed or refused", c, i, o.q)
				continue
			}
			q := o.q
			q.Idx = 0
			m.o.Apply(q, m.rs)
			if q.Op != keys.OpSearch {
				continue
			}
			if want, _ := m.rs.Get(0); !r.has || r.res != want {
				m.fail("conn %d op %d %v: got %+v, oracle %+v", c, i, o.q, r.res, want)
			}
		}
	}
}

// servedPhase summarises one open-loop phase.
type servedPhase struct {
	lat, late []time.Duration
	windows   []float64 // completed ops/s per full second
	sloMiss   int
}

func summarise(res [][]opResult, d time.Duration) servedPhase {
	var p servedPhase
	perSec := make([]int, int(d/time.Second)+1)
	for c := range res {
		for _, r := range res[c] {
			p.lat = append(p.lat, r.lat)
			p.late = append(p.late, r.late)
			if !r.ok || r.lat > sloMicros*time.Microsecond {
				p.sloMiss++
			}
			if s := int(r.done / time.Second); s < len(perSec) {
				perSec[s]++
			}
		}
	}
	full := int(d / time.Second)
	for _, n := range perSec[:full] {
		p.windows = append(p.windows, float64(n))
	}
	if full == 0 { // -quick: shorter than one window
		p.windows = append(p.windows, float64(len(p.lat))/d.Seconds())
	}
	sortDurations(p.lat)
	sortDurations(p.late)
	return p
}

// runServed is one untraced run of served-open.
func runServed(s spec, cfg config) (*result, error) {
	r := newResult(s.name)
	var se *servedEnv
	setups, err := setUpTimes(cfg.setupReps, func(m *mirror) (float64, func(), error) {
		var err error
		if se, err = setUpServed(s, cfg, nil, m, nil); err != nil {
			return 0, nil, err
		}
		return se.setup.Seconds(), func() { se.f.stop(); se.close() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer se.close()

	ops := se.schedules(cfg.measure)
	res, _ := openLoop(se.f.sinks(), ops)
	p := summarise(res, cfg.measure)
	se.mirrorOps(ops, res, true)

	st, stopErr := se.f.stop()
	se.m.finalState(se.db)
	keysStored := se.db.Len()
	heap := retainedHeap(se.dropDB)
	if stopErr != nil {
		se.m.fail("server shutdown: %v", stopErr)
	}
	if st.Responses != st.Accepted {
		se.m.fail("server wrote %d responses for %d accepted requests", st.Responses, st.Accepted)
	}
	if late := us(percentile(p.late, 0.99)); late > genLateLimitUS {
		r.Warning = fmt.Sprintf("open-loop generator ran %.0f us late at p99 (disturbed above %d)", late, genLateLimitUS)
	}

	r.set("setup_s", median(setups))
	r.set("throughput_qps", median(p.windows))
	r.set("latency_p50_ms", ms(percentile(p.lat, 0.50)))
	r.set("latency_p95_ms", ms(percentile(p.lat, 0.95)))
	r.set("heap_bytes_per_key", heap/float64(keysStored))
	r.Samples["latency"] = len(p.lat)
	r.Samples["throughput_windows"] = len(p.windows)
	r.Samples["setups"] = len(setups)
	r.finish(se.m)
	return r, nil
}
