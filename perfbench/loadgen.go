package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"locwatch/internal/stream"
)

// opKind distinguishes the two request types the service workloads
// send.
type opKind int

const (
	opIngest opKind = iota // POST /v1/users/{id}/fixes
	opRisk                 // GET /v1/users/{id}/risk
)

// op is one request of the schedule. Ops of one user always sit on
// the same lane, in order, so a user's batches arrive in time order.
type op struct {
	kind  opKind
	user  int // the account the request is for
	src   int // the world user whose fixes the batch carries
	first int // index of the batch's first fix in src's timed-phase fixes
	n     int // fixes in the batch
	body  []byte
}

// sample is the outcome of one scheduled op. Times are offsets from
// the phase start: sched is when the op was due, sent when the lane
// started it, done when its response had been read.
type sample struct {
	op                *op
	sched, sent, done time.Duration
	status            int
	err               error
}

// latency is the time from when the op was due to its completion, so
// a stall is charged to every op scheduled behind it.
func (s sample) latency() time.Duration { return s.done - s.sched }

// late is how far behind schedule the generator started the op.
func (s sample) late() time.Duration { return s.sent - s.sched }

// failed reports a transport error, a non-2xx status or a response
// slower than the timeout.
func (s sample) failed(timeout time.Duration) bool {
	return s.err != nil || s.status < 200 || s.status > 299 || s.latency() > timeout
}

// runner sends each lane's ops at their scheduled offsets and returns
// every lane's samples in schedule order.
type runner func(lanes [][]*op, sched [][]time.Duration) [][]sample

// doer performs one op on one lane and returns the response status.
type doer func(lane int, o *op) (int, error)

// run sends the ops through do with runOpenLoop.
func (do doer) run(lanes [][]*op, sched [][]time.Duration) [][]sample {
	return runOpenLoop(lanes, sched, do)
}

// arrivals draws Poisson arrival offsets at rate per second until
// dur, at most max of them.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration, max int) []time.Duration {
	var ts []time.Duration
	t := 0.0
	for len(ts) < max {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			break
		}
		ts = append(ts, at)
	}
	return ts
}

// runOpenLoop sends each lane's ops at their scheduled offsets, one
// goroutine per lane, each op only after the lane's previous one
// returned; it is the traced run's transport, whose ops are calls. A
// lane that falls behind sends its next op at once; the delay shows
// as lateness and in every latency behind it.
func runOpenLoop(lanes [][]*op, sched [][]time.Duration, do doer) [][]sample {
	out := make([][]sample, len(lanes))
	var wg sync.WaitGroup
	start := time.Now()
	for l := range lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			res := make([]sample, len(sched[l]))
			for i, at := range sched[l] {
				if d := at - time.Since(start); d > 0 {
					sleep(d)
				}
				s := sample{op: lanes[l][i], sched: at, sent: time.Since(start)}
				s.status, s.err = do(l, s.op)
				s.done = time.Since(start)
				res[i] = s
			}
			out[l] = res
		}(l)
	}
	wg.Wait()
	return out
}

// httpLanes is the generator's transport: one keep-alive connection
// per lane to the server under test. A lane's requests are pipelined
// (HTTP/1.1): each is written when it is due, without waiting for the
// responses to earlier ones, which a second goroutine per lane reads
// back in order. The server handles a connection's requests one at a
// time, in order, so a user's batches arrive in order; a request that
// waits behind others waits in the connection, and that wait counts
// in its latency. A lane that waited for each response before sending
// the next would make every request queue behind the previous one's
// round trip at the generator, and the generator's own wake-ups would
// set the latency. Control requests (drain, memory, quit, the
// correctness gate) use a separate client.
type httpLanes struct {
	base  string
	addr  string
	conns []*laneConn
	ctl   *http.Client
}

// laneConn is one lane's connection, dialed on first use.
type laneConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func newHTTPLanes(base string, n int) *httpLanes {
	h := &httpLanes{
		base: base, addr: strings.TrimPrefix(base, "http://"),
		ctl: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	for i := 0; i < n; i++ {
		h.conns = append(h.conns, &laneConn{})
	}
	return h
}

// run sends each lane's ops at their scheduled offsets on the lane's
// connection and returns every lane's samples in schedule order. A
// transport error fails the op it hit and every later op of the lane,
// and the connection is dropped.
func (h *httpLanes) run(lanes [][]*op, sched [][]time.Duration) [][]sample {
	// A sending goroutine waits in nanosleep, a system call that keeps
	// its P. With one P per CPU, two sleeping senders would hold both,
	// and a response would wait to be read until the runtime's monitor
	// polls the network, up to 10 ms later. One P per goroutine of the
	// phase, and one for the rest, keeps every reader runnable.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2*len(lanes) + 1))
	out := make([][]sample, len(lanes))
	broken := make([]bool, len(lanes))
	var wg sync.WaitGroup
	start := time.Now()
	for l := range lanes {
		res := make([]sample, len(sched[l]))
		out[l] = res
		written := make(chan int, len(res)) // indices of written ops, in order
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(written)
			for i, at := range sched[l] {
				if d := at - time.Since(start); d > 0 {
					sleep(d)
				}
				res[i] = sample{op: lanes[l][i], sched: at, sent: time.Since(start)}
				if err := h.write(l, res[i].op); err != nil {
					for j := i; j < len(res); j++ {
						res[j] = sample{op: lanes[l][j], sched: sched[l][j], sent: res[i].sent, done: res[i].sent, err: err}
					}
					broken[l] = true
					return
				}
				written <- i
			}
		}()
		go func() {
			defer wg.Done()
			var err error
			for i := range written {
				if err == nil {
					res[i].status, err = h.read(l)
				}
				res[i].err = err
				res[i].done = time.Since(start)
			}
			if err != nil {
				broken[l] = true
			}
		}()
	}
	wg.Wait()
	for l, b := range broken {
		if b {
			h.drop(l)
		}
	}
	return out
}

// write sends one op's request on the lane's connection.
func (h *httpLanes) write(lane int, o *op) error {
	lc := h.conns[lane]
	if lc.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return err
		}
		lc.c, lc.br = c, bufio.NewReaderSize(c, 4096)
	}
	b := lc.buf[:0]
	switch o.kind {
	case opIngest:
		b = fmt.Appendf(b, "POST /v1/users/%s/fixes HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
			stream.UserID(o.user), h.addr, len(o.body))
		b = append(b, o.body...)
	case opRisk:
		b = fmt.Appendf(b, "GET /v1/users/%s/risk HTTP/1.1\r\nHost: %s\r\n\r\n", stream.UserID(o.user), h.addr)
	}
	lc.buf = b
	_, err := lc.c.Write(b)
	return err
}

// read reads the lane's next response and discards its body. A
// response that closes the connection is an error for the requests
// pipelined behind it.
func (h *httpLanes) read(lane int) (int, error) {
	lc := h.conns[lane]
	resp, err := http.ReadResponse(lc.br, nil)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		err = errors.New("server closed the connection")
	}
	return resp.StatusCode, err
}

// drop closes the lane's connection after an error or a response that
// ends it; the lane's next op dials again.
func (h *httpLanes) drop(lane int) {
	lc := h.conns[lane]
	if lc.c != nil {
		_ = lc.c.Close() // the connection is being abandoned
	}
	lc.c, lc.br = nil, nil
}

// roundTrip sends a control request, decoding a 2xx body into into
// when it is non-nil and discarding it otherwise.
func (h *httpLanes) roundTrip(req *http.Request, into *[]byte) (int, error) {
	resp, err := h.ctl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if into != nil {
		*into, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, err
}

func (h *httpLanes) close() {
	for l := range h.conns {
		h.drop(l)
	}
	h.ctl.CloseIdleConnections()
}

// phaseStats summarizes the samples of one open-loop phase.
type phaseStats struct {
	ingest, risk  []float64 // latencies in ms, from the scheduled send time
	late          []float64 // generator lateness in ms
	attempted     int
	failed        int
	fixes         int     // fixes in ingests answered 2xx
	lateGrowth    float64 // median lateness of the last quarter minus the first, ms
	backlogGrowth float64 // median latency of the last quarter minus the first, ms
	exhausted     bool    // a lane ran out of prepared ops
}

func summarize(res [][]sample, exhausted bool) phaseStats {
	var ps phaseStats
	ps.exhausted = exhausted
	var all []sample
	var end time.Duration
	for _, lane := range res {
		all = append(all, lane...)
		for _, s := range lane {
			end = max(end, s.sched)
		}
	}
	for _, s := range all {
		ps.attempted++
		if s.failed(requestTimeout) {
			ps.failed++
		} else if s.op.kind == opIngest {
			ps.fixes += s.op.n
		}
		switch s.op.kind {
		case opIngest:
			ps.ingest = append(ps.ingest, ms(s.latency()))
		case opRisk:
			ps.risk = append(ps.risk, ms(s.latency()))
		}
		ps.late = append(ps.late, ms(s.late()))
	}
	// Lateness and backlog growth compare the first and last quarters
	// of the phase by scheduled time. Requests wait in the connection
	// rather than at the generator, so a backlog the server does not
	// work off shows as latency that grows over the phase.
	if len(all) >= 8 {
		var firstLate, lastLate, firstLat, lastLat []float64
		for _, s := range all {
			switch {
			case s.sched < end/4:
				firstLate, firstLat = append(firstLate, ms(s.late())), append(firstLat, ms(s.latency()))
			case s.sched >= end*3/4:
				lastLate, lastLat = append(lastLate, ms(s.late())), append(lastLat, ms(s.latency()))
			}
		}
		ps.lateGrowth = median(lastLate) - median(firstLate)
		ps.backlogGrowth = median(lastLat) - median(firstLat)
	}
	return ps
}

// meets reports whether the phase sustained its rate: no failures,
// p99 of both request types within the limit, and neither the
// generator's lateness nor the latency (the backlog in the
// connections) grew by more than a quarter of the limit.
func (ps phaseStats) meets(limit float64) bool {
	return !ps.exhausted && ps.attempted > 0 && ps.failed == 0 &&
		quantile(ps.ingest, 0.99) <= limit && quantile(ps.risk, 0.99) <= limit &&
		ps.lateGrowth <= limit/4 && ps.backlogGrowth <= limit/4
}

// scheduler hands out consecutive slices of each lane's ops, so every
// phase continues the users' streams where the previous one stopped.
// It keeps every phase's samples for the correctness gate.
//
// With wrap set, a lane that has sent all its ops starts over, as new
// accounts: the k-th pass sends world user u's batches for account
// u + k·wrap, so the stream never runs dry and every account still
// receives its batches in order.
type scheduler struct {
	lanes   [][]*op
	cursor  []int
	pass    []int
	wrap    int
	rng     *rand.Rand
	run     runner
	history [][][]sample
}

func newScheduler(ls [][]*op, seed int64, run runner) *scheduler {
	return &scheduler{lanes: ls, cursor: make([]int, len(ls)), pass: make([]int, len(ls)),
		rng: rand.New(rand.NewSource(seed)), run: run}
}

// next returns the lane's next op, or nil when it has none left.
func (s *scheduler) next(l int) *op {
	if s.cursor[l] == len(s.lanes[l]) {
		if s.wrap == 0 || len(s.lanes[l]) == 0 {
			return nil
		}
		s.cursor[l] = 0
		s.pass[l]++
	}
	o := s.lanes[l][s.cursor[l]]
	s.cursor[l]++
	if s.pass[l] > 0 {
		c := *o
		c.user += s.pass[l] * s.wrap
		o = &c
	}
	return o
}

// phase runs the next dur of the schedule at opsPerSec Poisson
// arrivals, split evenly over the lanes. exhausted reports that a lane
// ran out of prepared ops before dur.
func (s *scheduler) phase(opsPerSec float64, dur time.Duration) (ps phaseStats) {
	ls := make([][]*op, len(s.lanes))
	sched := make([][]time.Duration, len(s.lanes))
	exhausted := false
	for l := range s.lanes {
		sched[l] = arrivals(s.rng, opsPerSec/float64(len(s.lanes)), dur, math.MaxInt)
		for i := range sched[l] {
			o := s.next(l)
			if o == nil {
				sched[l], exhausted = sched[l][:i], true
				break
			}
			ls[l] = append(ls[l], o)
		}
	}
	res := s.run(ls, sched)
	s.history = append(s.history, res)
	return summarize(res, exhausted)
}

// opsPerSec converts a fix rate into the workload's request rate,
// counting the risk GETs that ride along with the POSTs.
func (w workload) opsPerSec(fixes float64) float64 {
	r := fixes / float64(w.batch)
	if w.riskEvery > 0 {
		r *= 1 + 1/float64(w.riskEvery)
	}
	return r
}

// ladder searches the fixed rate ladder nominal·step^k for the highest
// rung that meets the limit. It starts ladderStart rungs above the
// nominal rate and steps up until a rung fails, or down until one
// passes, then refines between the last passing and the first failing
// rung. It returns the fixes per second the server accepted during the
// highest passing rung, or 0 if no rung passes.
func ladder(s *scheduler, w workload, limit float64) float64 {
	// A rung that fails is run once more: it fails only if the retry
	// fails too, so one hiccup of the machine does not end the ladder.
	sustained := 0.0
	try := func(rate float64) (ok, exhausted bool) {
		for attempt := 0; attempt < 2 && !ok && !exhausted; attempt++ {
			ps := s.phase(w.opsPerSec(rate), rungDur)
			ok, exhausted = ps.meets(limit), ps.exhausted
			if ok {
				sustained = float64(ps.fixes) / rungDur.Seconds()
			}
			fmt.Fprintf(os.Stderr, "perfbench: rung %8.0f fixes/s: %5d requests, %d failed, p99 %.2f/%.2f ms, lateness/backlog growth %.2f/%.2f ms, pass %v\n",
				rate, ps.attempted, ps.failed, quantile(ps.ingest, 0.99), quantile(ps.risk, 0.99), ps.lateGrowth, ps.backlogGrowth, ok)
		}
		if exhausted {
			fmt.Fprintln(os.Stderr, "perfbench: ladder ran out of prepared requests")
		}
		return ok, exhausted
	}
	lo, hi := 0.0, 0.0
	k := ladderStart
	for i := 0; i < ladderRungs && (lo == 0 || hi == 0); i++ {
		rate := w.nominal * math.Pow(ladderStep, float64(k))
		ok, ex := try(rate)
		if ex {
			return sustained
		}
		if ok {
			lo, k = rate, k+1
		} else {
			hi, k = rate, k-1
		}
	}
	if lo == 0 || hi == 0 {
		return sustained
	}
	for i := 0; i < ladderBisects; i++ {
		mid := math.Sqrt(lo * hi)
		ok, ex := try(mid)
		if ex {
			break
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return sustained
}
