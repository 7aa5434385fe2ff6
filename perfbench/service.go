package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"locwatch/internal/mobility"
	"locwatch/internal/stream"
	"locwatch/internal/trace"
)

const (
	lanes          = 2           // connections and sending goroutines of the generator
	requestTimeout = time.Second // a slower response counts as failed
	setupRepeats   = 3           // set-ups per run; setup_s is their median
	ladderStep     = 1.4         // rate ratio between coarse ladder rungs
	ladderStart    = 5           // the first rung is nominal·step^ladderStart
	ladderRungs    = 8           // coarse rungs at most
	ladderBisects  = 3           // refinement rungs between the last pass and first fail
	rungDur        = time.Second // length of one ladder rung
	batchPasses    = 3           // batch replays after each server; suite_s is the median of all
)

// inputs is the generator's side of a service workload: the encoded
// requests, split into lanes. The fixes themselves are not kept; the
// correctness gate regenerates them from the world.
type inputs struct {
	mc    mobility.Config
	lanes [][]*op
	fixes int // fixes in the prepared POSTs
}

// prepareInputs generates the world on the generator side, takes every
// user's timed-phase fixes and encodes them as 32-fix POSTs, users
// round-robin within their lane (see assignLanes) with the workload's
// risk GETs, until each lane holds half the fix budget.
func prepareInputs(w workload, worldSeed int64, budget int) (*inputs, error) {
	mc := w.worldConfig(worldSeed)
	world, err := mobility.New(mc)
	if err != nil {
		return nil, err
	}
	in := &inputs{mc: mc, lanes: make([][]*op, lanes)}
	timed := make([][]trace.Point, w.users)
	for u := range timed {
		if timed[u], err = userFixes(world, w, u, time.Time{}, time.Time{}); err != nil {
			return nil, err
		}
	}
	for l, users := range assignLanes(timed) {
		posts, fixes := 0, 0
		for k := 0; fixes < budget/lanes; k++ {
			any := false
			for _, u := range users {
				if fixes >= budget/lanes {
					break
				}
				first := k * w.batch
				if first >= len(timed[u]) {
					continue
				}
				any = true
				n := min(w.batch, len(timed[u])-first)
				body, err := encodeBatch(timed[u][first : first+n])
				if err != nil {
					return nil, err
				}
				in.lanes[l] = append(in.lanes[l], &op{kind: opIngest, user: u, src: u, first: first, n: n, body: body})
				posts++
				fixes += n
				if w.riskEvery > 0 && posts%w.riskEvery == 0 {
					in.lanes[l] = append(in.lanes[l], &op{kind: opRisk, user: u, src: u})
				}
			}
			if !any {
				break
			}
		}
		in.fixes += fixes
	}
	return in, nil
}

// assignLanes pins each user to one lane, heaviest user first to the
// lane with the fewest fixes so far, so the lanes carry about equal
// load and run out of prepared requests together.
func assignLanes(timed [][]trace.Point) [][]int {
	order := make([]int, len(timed))
	for u := range order {
		order[u] = u
	}
	sort.SliceStable(order, func(i, j int) bool { return len(timed[order[i]]) > len(timed[order[j]]) })
	out := make([][]int, lanes)
	load := make([]int, lanes)
	for _, u := range order {
		l := 0
		for k := range load {
			if load[k] < load[l] {
				l = k
			}
		}
		out[l] = append(out[l], u)
		load[l] += len(timed[u])
	}
	for _, users := range out {
		sort.Ints(users)
	}
	return out
}

// serverProc is the server under test, running in its own process.
type serverProc struct {
	cmd   *exec.Cmd
	ready readyLine
}

// startServer runs this binary's serve mode for the workload and waits
// until it listens.
func startServer(w workload, worldSeed int64) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve", "--workload", w.name, "--world-seed", strconv.FormatInt(worldSeed, 10))
	cmd.Stderr = os.Stderr
	if _, err := cmd.StdinPipe(); err != nil { // held open until Wait; see exitWithParent
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd}
	if err := json.NewDecoder(bufio.NewReader(out)).Decode(&p.ready); err != nil {
		p.kill()
		return nil, fmt.Errorf("server did not start: %w", err)
	}
	return p, nil
}

// kill stops the server without a drain and waits for it to exit.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	_ = p.cmd.Wait()         // the exit status of a killed server carries nothing
}

// stop asks the server to drain and exit.
func (p *serverProc) stop(h *httpLanes) error {
	if err := getJSON(h, http.MethodPost, "/bench/quit", nil); err != nil {
		p.kill()
		return err
	}
	h.close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exit: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		p.kill()
		<-done
		return errors.New("server did not exit")
	}
}

// setupService starts the server and prepares the generator's inputs
// concurrently, as one set-up; it returns the wall time of both.
func setupService(w workload, worldSeed int64, budget int) (*serverProc, *inputs, float64, error) {
	t0 := time.Now()
	type srvRes struct {
		p   *serverProc
		err error
	}
	sc := make(chan srvRes, 1)
	go func() {
		p, err := startServer(w, worldSeed)
		sc <- srvRes{p, err}
	}()
	in, inErr := prepareInputs(w, worldSeed, budget)
	s := <-sc
	if s.err != nil {
		return nil, nil, 0, s.err
	}
	if inErr != nil {
		s.p.kill()
		return nil, nil, 0, inErr
	}
	return s.p, in, time.Since(t0).Seconds(), nil
}

// getJSON sends a body-less request for path and decodes a 2xx
// response into v (when v is non-nil); any other status is an error.
func getJSON(h *httpLanes, method, path string, v any) error {
	req, err := http.NewRequest(method, h.base+path, nil)
	if err != nil {
		return err
	}
	var body []byte
	status, err := h.roundTrip(req, &body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d", method, path, status)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

// accepted collects, per account in send order, the batches the server
// acknowledged with 2xx. A transport error leaves the batch's fate
// unknown, so it fails the run.
func accepted(all [][][]sample) (map[int][]*op, error) {
	acc := map[int][]*op{}
	for _, phase := range all {
		for _, lane := range phase {
			for _, s := range lane {
				if s.op.kind != opIngest {
					continue
				}
				if s.err != nil {
					return nil, fmt.Errorf("ingest for user %d: transport error: %w", s.op.user, s.err)
				}
				if s.status/100 == 2 {
					acc[s.op.user] = append(acc[s.op.user], s.op)
				}
			}
		}
	}
	return acc, nil
}

// batchRisks is the batch side of the correctness gate. It regenerates
// the world, the references and every fix from the seed, so nothing is
// shared with the server, and replays each account's accepted batches
// through batchReplay. The traced run times trace
// synthesis here, one span per user's whole period.
func batchRisks(w workload, mc mobility.Config, acc map[int][]*op, score bool, tr *tracer) (*replayOut, error) {
	world, err := mobility.New(mc)
	if err != nil {
		return nil, err
	}
	cfg := w.engineConfig(mc)
	var refs *refSet
	if w.refs {
		if refs, err = buildReferences(world, w, cfg); err != nil {
			return nil, err
		}
	}
	users := make([]replayUser, w.users)
	timed := make([][]trace.Point, w.users) // kept for wrapped accounts only
	generated := 0
	for u := range users {
		sp := tr.start("mobility.trace", nil)
		pts, err := userFixes(world, w, u, time.Time{}, time.Time{})
		sp.end()
		if err != nil {
			return nil, err
		}
		generated += len(pts)
		ru := replayUser{id: stream.UserID(u)}
		for _, o := range acc[u] {
			ru.fixes = append(ru.fixes, pts[o.first:o.first+o.n]...)
		}
		users[u] = ru
		if w.wraps() {
			timed[u] = pts
		}
	}
	// Accounts beyond the population come from a wrapped schedule.
	var extra []int
	for id := range acc {
		if id >= w.users {
			extra = append(extra, id)
		}
	}
	sort.Ints(extra)
	for _, id := range extra {
		ru := replayUser{id: stream.UserID(id)}
		for _, o := range acc[id] {
			ru.fixes = append(ru.fixes, timed[o.src][o.first:o.first+o.n]...)
		}
		users = append(users, ru)
	}
	br, err := batchReplay(users, cfg, refs, w.batch, score, tr)
	if br != nil {
		br.generated = generated
	}
	return br, err
}

// checkServed compares the served user set with the batch replay's, and
// every user's served risk (after a shard drain) with the replay's.
func checkServed(h *httpLanes, want map[string]stream.Risk) error {
	if err := getJSON(h, http.MethodPost, "/bench/sync", nil); err != nil {
		return err
	}
	var served struct {
		Users []string `json:"users"`
	}
	if err := getJSON(h, http.MethodGet, "/v1/users", &served); err != nil {
		return err
	}
	if len(served.Users) != len(want) {
		return fmt.Errorf("server knows %d users, batch replay %d", len(served.Users), len(want))
	}
	for id, wr := range want {
		var got stream.Risk
		if err := getJSON(h, http.MethodGet, "/v1/users/"+id+"/risk", &got); err != nil {
			return err
		}
		if got != wr {
			return fmt.Errorf("user %s: served risk %+v, batch replay %+v", id, got, wr)
		}
	}
	return nil
}

// readLanes builds a GET schedule over all users, for the read phase
// of a writes-only workload in a run of length total: twice as many
// GETs per lane as the phase's Poisson arrivals need on average, so a
// lane never runs out.
func readLanes(users int, total time.Duration) [][]*op {
	perLane := int(2 * readRate * readDur(total).Seconds() / lanes)
	ls := make([][]*op, lanes)
	for l := range ls {
		for i := 0; i < perLane; i++ {
			ls[l] = append(ls[l], &op{kind: opRisk, user: (l + lanes*i) % users})
		}
	}
	return ls
}

// nominalDur and readDur are one server's share of a run's nominal
// phase (half the run) and of a writes-only workload's read phase (a
// quarter of it).
func nominalDur(total time.Duration) time.Duration { return total / 2 / setupRepeats }
func readDur(total time.Duration) time.Duration    { return total / 4 / setupRepeats }

// serverRun is what one server's share of a run measured.
type serverRun struct {
	ingest, risk      []float64 // latencies in ms of the nominal (ingest) and read or nominal (risk) phase
	sustained         float64   // fixes/s of the server's highest passing ladder rung
	attempted, failed int
	mem               memory
}

// measureNominal runs the fixed-work phases on one server: its share
// of the nominal phase and, for a writes-only workload, a shard drain
// and a read phase. Memory is read after them, before any ladder,
// whose overload and wrapped accounts depend on how far it climbs.
func measureNominal(w workload, sch *scheduler, h *httpLanes, seed int64, total time.Duration) (serverRun, error) {
	// The generator's own garbage collection would stall its lanes and
	// be charged to the server; the fixed-work phases allocate little
	// enough to run without it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	nom := sch.phase(w.opsPerSec(w.nominal), nominalDur(total))
	if nom.exhausted {
		return serverRun{}, errors.New("nominal phase ran out of prepared requests")
	}
	r := serverRun{ingest: nom.ingest, risk: nom.risk, attempted: nom.attempted, failed: nom.failed}
	if w.riskEvery == 0 {
		// Writes-only workload: once the shards have drained, read
		// every user's risk, open-loop, to time the GET path on the
		// state the writes built.
		if err := getJSON(h, http.MethodPost, "/bench/sync", nil); err != nil {
			return r, err
		}
		rd := newScheduler(readLanes(w.users, total), seed, h.run).phase(readRate, readDur(total))
		r.risk = rd.risk
		r.attempted += rd.attempted
		r.failed += rd.failed
	}
	err := getJSON(h, http.MethodGet, "/bench/memory", &r.mem)
	fmt.Fprintf(os.Stderr, "perfbench: %s nominal %.0f fixes/s: %d requests, %d failed, pooled ingest p50/p99 %.3f/%.3f ms, risk p50/p99 %.3f/%.3f ms, gen late p99 %.3f ms\n",
		w.name, w.nominal, nom.attempted, nom.failed, quantile(nom.ingest, 0.5), quantile(nom.ingest, 0.99),
		quantile(r.risk, 0.5), quantile(r.risk, 0.99), quantile(nom.late, 0.99))
	return r, err
}

// runService is one measured run of a service workload. Each of the
// set-ups starts its own server, which then serves an equal share of
// the nominal phase and climbs the rate ladder. Each latency
// percentile is taken over every request of its kind that the three
// servers served; memory and sustained rate are the median server's.
// The last server then goes through the correctness gate.
func runService(w workload, sd seeds, seconds int, limit float64) (*result, error) {
	total := time.Duration(seconds) * time.Second
	var setups, passes []float64
	var runs []serverRun
	var srv *serverProc
	var h *httpLanes
	var in *inputs
	var sch *scheduler
	for i := 0; i < setupRepeats; i++ {
		p, inp, s, err := setupService(w, sd.world, w.budget(seconds))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		srv, in, setups = p, inp, append(setups, s)
		// Collect the set-up's garbage (earlier set-ups' requests
		// included) now, not while the generator is timing requests.
		runtime.GC()
		h = newHTTPLanes("http://"+srv.ready.Addr, lanes)
		sch = newScheduler(in.lanes, sd.nominalSeed()+int64(i), h.run)
		if w.wraps() {
			sch.wrap = w.users
		}
		var r serverRun
		err = spinning(func() (err error) {
			if r, err = measureNominal(w, sch, h, sd.readSeed()+int64(i), total); err != nil {
				return err
			}
			r.sustained = ladder(sch, w, limit)
			fmt.Fprintf(os.Stderr, "perfbench: %s sustained %.0f fixes/s\n", w.name, r.sustained)
			return nil
		})
		if err != nil {
			srv.kill()
			return nil, err
		}
		runs = append(runs, r)
		// suite_s times the batch side on fixed work: the server's
		// nominal-phase batches, whose count the ladder does not
		// change. Timing it after every server spreads its samples
		// over the run.
		nomAcc, err := accepted(sch.history[:1])
		if err != nil {
			srv.kill()
			return nil, err
		}
		for k := 0; k < batchPasses; k++ {
			t0 := time.Now()
			if _, err = batchRisks(w, in.mc, nomAcc, false, nil); err != nil {
				srv.kill()
				return nil, fmt.Errorf("batch replay: %w", err)
			}
			passes = append(passes, time.Since(t0).Seconds())
		}
		if i < setupRepeats-1 {
			if err := srv.stop(h); err != nil {
				return nil, err
			}
		}
	}
	defer srv.kill()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d timed-phase fixes prepared in %d+%d requests\n",
		w.name, in.fixes, len(in.lanes[0]), len(in.lanes[1]))

	// The gate's reference replays every batch the last server accepted.
	acc, err := accepted(sch.history)
	if err != nil {
		return nil, err
	}
	br, err := batchRisks(w, in.mc, acc, false, nil)
	if err != nil {
		return nil, fmt.Errorf("batch replay: %w", err)
	}
	correct := true
	if err := checkServed(h, br.final); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gate: %v\n", err)
		correct = false
	}
	if err := srv.stop(h); err != nil {
		return nil, err
	}
	res := &result{Correct: correct, Metrics: map[string]metric{
		"setup_s": {median(setups), "s"},
		"suite_s": {median(passes), "s"},
	}}
	var ingest, risk []float64
	var heap, peak, sustained []float64
	for _, r := range runs {
		ingest, risk = append(ingest, r.ingest...), append(risk, r.risk...)
		heap, peak = append(heap, r.mem.HeapMiB), append(peak, r.mem.PeakMiB)
		sustained = append(sustained, r.sustained)
	}
	res.Metrics["sustained_fixes_per_s"] = metric{median(sustained), "fixes/s"}
	res.Metrics["ingest_p50_ms"] = metric{quantile(ingest, 0.5), "ms"}
	res.Metrics["ingest_p99_ms"] = metric{quantile(ingest, 0.99), "ms"}
	res.Metrics["risk_p50_ms"] = metric{quantile(risk, 0.5), "ms"}
	res.Metrics["risk_p99_ms"] = metric{quantile(risk, 0.99), "ms"}
	res.Metrics["state_heap_mb"] = metric{median(heap), "MiB"}
	res.Metrics["peak_rss_mb"] = metric{median(peak), "MiB"}
	for _, r := range runs {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	return res, nil
}

// readRate is the GET rate of a writes-only workload's read phase.
const readRate = 8000
