package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"locwatch/internal/obs"
	"locwatch/internal/stream"
	"locwatch/internal/trace"
)

// traceDir is where a traced run writes its spans and layer report,
// relative to the directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// spanRec is one finished span. Spans of one request share Req.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps finished spans in memory until the run ends. A nil
// tracer hands out nil spans, and a nil span's end is a no-op, so the
// untraced paths share the traced code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	reqs  uint64
	spans []spanRec
}

type span struct {
	tr    *tracer
	rec   spanRec
	start time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil for a root span).
func (t *tracer) start(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	s := &span{tr: t, rec: spanRec{ID: t.next, Name: name}}
	t.mu.Unlock()
	if parent != nil {
		s.rec.Parent, s.rec.Req = parent.rec.ID, parent.rec.Req
	}
	s.start = time.Now()
	return s
}

// request opens the root span of a new request.
func (t *tracer) request(name string) *span {
	if t == nil {
		return nil
	}
	s := t.start(name, nil)
	t.mu.Lock()
	t.reqs++
	s.rec.Req = t.reqs
	t.mu.Unlock()
	return s
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(s.start)
	s.rec.Start = int64(s.start.Sub(s.tr.t0))
	s.rec.End = int64(now.Sub(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.rec)
	s.tr.mu.Unlock()
	return d
}

// layerTime is the aggregate of one span name: total time, and self
// time, which is the total minus the time its child spans cover.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() map[string]*layerTime {
	child := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalMS += float64(d) / 1e6
		lt.SelfMS += float64(d-child[s.ID]) / 1e6
	}
	return out
}

// durations returns the durations of every span with the name, in µs.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// spanCost measures what one start/end pair costs, to state the
// tracing overhead of a run.
func spanCost() time.Duration {
	t := newTracer()
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.start("calibrate", nil).end()
	}
	return time.Since(t0) / n
}

// inproc is the traced run's transport: the generator's ops go
// straight into the handler or the engine in this process. Ops
// alternate per lane between the two paths, so the HTTP layer and the
// shard op are timed on the same inputs and the handler's own cost is
// their difference.
type inproc struct {
	tr  *tracer
	eng *stream.Engine
	mux http.Handler
	n   [lanes]int
}

func (ip *inproc) do(lane int, o *op) (int, error) {
	ip.n[lane]++
	if ip.n[lane]%2 == 0 {
		return ip.viaHTTP(o)
	}
	return ip.direct(o)
}

func (ip *inproc) viaHTTP(o *op) (int, error) {
	id := stream.UserID(o.user)
	var req *http.Request
	name := "http.ingest"
	if o.kind == opIngest {
		req = httptest.NewRequest(http.MethodPost, "/v1/users/"+id+"/fixes", bytes.NewReader(o.body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		name = "http.risk"
		req = httptest.NewRequest(http.MethodGet, "/v1/users/"+id+"/risk", nil)
	}
	rec := httptest.NewRecorder()
	root := ip.tr.request("request")
	sp := ip.tr.start(name, root)
	ip.mux.ServeHTTP(rec, req)
	sp.end()
	root.end()
	return rec.Code, nil
}

// direct decodes the body as the handler does (outside any span) and
// calls the engine.
func (ip *inproc) direct(o *op) (int, error) {
	id := stream.UserID(o.user)
	ctx := context.Background()
	if o.kind == opRisk {
		root := ip.tr.request("request")
		sp := ip.tr.start("stream.risk", root)
		_, err := ip.eng.Risk(ctx, id)
		sp.end()
		root.end()
		if err != nil {
			return http.StatusConflict, nil
		}
		return http.StatusOK, nil
	}
	var body stream.IngestRequest
	if err := json.Unmarshal(o.body, &body); err != nil {
		return 0, err
	}
	pts := make([]trace.Point, len(body.Fixes))
	for i, f := range body.Fixes {
		pts[i].Pos.Lat, pts[i].Pos.Lon, pts[i].T = f.Lat, f.Lon, f.T
	}
	root := ip.tr.request("request")
	sp := ip.tr.start("stream.ingest", root)
	err := ip.eng.Ingest(ctx, id, pts)
	sp.end()
	root.end()
	if err != nil {
		return http.StatusBadRequest, nil
	}
	return http.StatusAccepted, nil
}

// allocsPerPOST sends the next n ingest ops of lane 0 through the
// handler one by one and counts heap allocations per POST, including
// the shard-side feeding each one triggers (the engine is drained
// before and after). The ops are recorded as one more phase, so the
// correctness gate replays them too.
func allocsPerPOST(ctx context.Context, s *scheduler, ip *inproc, n int) (float64, error) {
	var ops []*op
	var res []sample
	for len(ops) < n {
		o := s.next(0)
		if o == nil {
			break
		}
		if o.kind == opIngest {
			ops = append(ops, o)
		}
	}
	if len(ops) == 0 {
		return 0, fmt.Errorf("no ingest ops left to count allocations")
	}
	if _, err := ip.eng.Users(ctx); err != nil { // barrier: queued work done
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range ops {
		code, err := ip.viaHTTP(o)
		res = append(res, sample{op: o, status: code, err: err})
	}
	if _, err := ip.eng.Users(ctx); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	s.history = append(s.history, [][]sample{res})
	return float64(after.Mallocs-before.Mallocs) / float64(len(ops)), nil
}

// layerMetrics collects the traced run's per-layer values.
type layerMetrics map[string]metric

func (m layerMetrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// tracedService replays the first server's share of a service
// workload's nominal phase (and read phase) in-process, open-loop on
// the same schedule as the measured run, then the batch replay on the same fixes, and checks the served
// risks against it.
func tracedService(w workload, sd seeds, seconds int, tr *tracer, m layerMetrics) error {
	ctx := context.Background()
	t0 := time.Now()
	st, err := newServiceState(w, sd.world)
	if err != nil {
		return err
	}
	defer st.eng.Close()
	m.set("setup.world_s", "s", st.worldS)
	m.set("setup.refs_s", "s", st.refsS)
	in, err := prepareInputs(w, sd.world, w.budget(seconds))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced set-up %.2f s\n", time.Since(t0).Seconds())

	recomputes := st.reg.Counter("locwatch_stream_recomputes_total")
	recomputeS := st.reg.Histogram("locwatch_stream_recompute_seconds", obs.DefLatencyBuckets)
	rc0, rs0 := recomputes.Value(), recomputeS.Sum()

	total := time.Duration(seconds) * time.Second
	ip := &inproc{tr: tr, eng: st.eng, mux: stream.NewMux(st.eng, st.reg, nil)}
	sch := newScheduler(in.lanes, sd.nominalSeed(), doer(ip.do).run)
	if w.wraps() {
		sch.wrap = w.users
	}
	nom := sch.phase(w.opsPerSec(w.nominal), nominalDur(total))
	if w.riskEvery == 0 {
		if err := st.eng.SyncAll(ctx); err != nil {
			return err
		}
		rs := newScheduler(readLanes(w.users, total), sd.readSeed(), doer(ip.do).run)
		rs.phase(readRate, readDur(total))
	}
	allocs, err := allocsPerPOST(ctx, sch, ip, 256)
	if err != nil {
		return err
	}
	syncSpan := tr.start("stream.sync", nil)
	if err := st.eng.SyncAll(ctx); err != nil {
		return err
	}
	m.set("stream.sync_ms", "ms", ms(syncSpan.end()))
	m.set("stream.recomputes", "count", float64(recomputes.Value()-rc0))
	m.set("stream.recompute_s", "s", recomputeS.Sum()-rs0)
	m.set("gen.late_ms_p99", "ms", quantile(nom.late, 0.99))
	m.set("http.ingest_allocs", "allocs", allocs)
	for name, d := range map[string][]float64{
		"http.ingest": tr.durations("http.ingest"), "stream.ingest": tr.durations("stream.ingest"),
		"stream.risk": tr.durations("stream.risk"),
	} {
		m.set(name+"_us_p50", "us", quantile(d, 0.5))
		m.set(name+"_us_p99", "us", quantile(d, 0.99))
	}
	m.set("http.risk_us_p50", "us", quantile(tr.durations("http.risk"), 0.5))

	acc, err := accepted(sch.history)
	if err != nil {
		return err
	}
	br, err := batchRisks(w, in.mc, acc, true, tr)
	if err != nil {
		return err
	}
	replayMetrics(br, tr, m)
	splits(m, float64(br.fixes), w.batch)
	for id, want := range br.final {
		got, err := st.eng.Risk(ctx, id)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("user %s: served risk %+v, batch replay %+v", id, got, want)
		}
	}
	return nil
}

// splits derives the layer split the workloads were chosen for, over
// the replayed phase, in which the engine fed fixes fixes in batches of
// batch: scoring's share of shard-side time (recomputes against
// feeding), and the HTTP handler's share of the server-side time per
// POST (the handler's own time against shard enqueue, feeding and the
// scoring per POST).
func splits(m layerMetrics, fixes float64, batch int) {
	scoring := m["stream.recompute_s"].Value
	feed := fixes * m["core.feed_ns_per_fix"].Value / 1e9
	m.set("split.scoring_share_pct", "%", 100*scoring/(scoring+feed))
	posts := fixes / float64(batch)
	handler := m["http.ingest_us_p50"].Value - m["stream.ingest_us_p50"].Value
	perPost := handler + m["stream.ingest_us_p50"].Value + (feed+scoring)/posts*1e6
	m.set("split.http_share_pct", "%", 100*handler/perPost)
}

// replayMetrics turns a traced batch replay into layer metrics.
func replayMetrics(br *replayOut, tr *tracer, m layerMetrics) {
	m.set("stream.compute_risk_us_p50", "us", quantile(br.computeUs, 0.5))
	m.set("stream.compute_risk_us_p99", "us", quantile(br.computeUs, 0.99))
	m.set("core.peek_us_p50", "us", quantile(br.peekUs, 0.5))
	m.set("core.hisbin_us_p50", "us", quantile(br.hisbinUs, 0.5))
	m.set("core.identify_us_p50", "us", quantile(br.identUs, 0.5))
	m.set("core.visits_at_recompute", "count", quantile(br.visits, 0.5))
	m.set("core.feed_ns_per_fix", "ns", quantile(br.coreNs, 0.5))
	m.set("poi.feed_ns_per_fix", "ns", quantile(br.poiNs, 0.5))
	var genNs float64
	for _, s := range tr.spans {
		if s.Name == "mobility.trace" {
			genNs += float64(s.End - s.Start)
		}
	}
	m.set("mobility.trace_ns_per_fix", "ns", genNs/float64(br.generated))
}

// tracedFigures runs one cold suite under a CPU profile with each step
// timed, then the service replay of the figure world.
func tracedFigures(w workload, sd seeds, seconds int, tr *tracer, m layerMetrics) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	_, lab, err := runSuite(sd.world, func(name string, d time.Duration) {
		m.set("experiments."+name+"_s", "s", d.Seconds())
	})
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	lab.Close()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return shares, tracedService(figuresService(w), sd, seconds, tr, m)
}

// runTraced is the traced run: per-layer metrics of the workload's
// inputs replayed in-process, with spans written out at the end.
func runTraced(w workload, sd seeds, seconds int) (*result, error) {
	tr := newTracer()
	m := layerMetrics{}
	// A workload that runs no figure suite reports its steps as 0.
	for _, st := range suiteSteps {
		m.set("experiments."+st.name+"_s", "s", 0)
	}
	start := time.Now()
	var shares map[string]float64
	var err error
	if w.service {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		err = tracedService(w, sd, seconds, tr, m)
		pprof.StopCPUProfile()
		if err == nil {
			shares, err = cpuShares(buf.Bytes())
		}
	} else {
		shares, err = tracedFigures(w, sd, seconds, tr, m)
	}
	correct := true
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: traced run: %v\n", err)
		correct = false
	}
	for layer, pct := range shares {
		m.set("cpu."+layer, "%", pct)
	}
	m.set("split.mobility_poi_cpu_pct", "%", shares["mobility"]+shares["poi"])
	m.set("split.mobility_poi_geo_cpu_pct", "%", shares["mobility"]+shares["poi"]+shares["geo"])
	wall := time.Since(start)
	cost := spanCost()
	m.set("trace.overhead_pct", "%", 100*float64(cost)*float64(len(tr.spans))/float64(wall))
	if err := writeTrace(w, sd, tr, m); err != nil {
		return nil, err
	}
	return &result{Correct: correct, Attempted: int(tr.reqs), Failed: 0, Metrics: m}, nil
}

// writeTrace writes the spans, the per-name self times and every layer
// metric, and prints the layer metrics to standard error.
func writeTrace(w workload, sd seeds, tr *tracer, m layerMetrics) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-world%d-seed%d.json", w.name, sd.world, sd.schedule))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string                `json:"workload"`
		World    int64                 `json:"world_seed"`
		Seed     int64                 `json:"seed"`
		Metrics  layerMetrics          `json:"metrics"`
		Layers   map[string]*layerTime `json:"layers"`
		Spans    []spanRec             `json:"spans"`
	}{w.name, sd.world, sd.schedule, m, tr.selfTimes(), tr.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}
