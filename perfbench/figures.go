package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"locwatch/internal/experiments"
	"locwatch/internal/market"
	"locwatch/internal/mobility"
	"locwatch/internal/stream"
)

// Pinned outputs of experiments.Quick() (--world-seed 1): the SHA-256
// of every Render() output and profile count of one suite, and of the
// batch risk pass's final per-user risks. A run on that world fails
// when either differs, so a figure or risk that is wrong the same way
// in every suite is caught too. Other world seeds are checked across
// the run's repeated suites only. The digests hold for x86-64, where Go
// does not fuse floating-point multiply-adds.
const (
	quickSuiteDigest = "291f97667b180a5ded535896be94f08d827c9fd8bba9fd62717efd84cdd068e2"
	quickRiskDigest  = "95b3d1cd916f3605514601ce4dfd4b235bf3ccc137e15f0eda916ef214169e25"
)

// figureSetups is how many times a figures run sets up (setup_s is
// their median). The batch risk pass runs passesPerSuite times after
// every suite, so its passes sample the whole run, and at least
// riskPasses times in all.
const (
	figureSetups   = 3
	passesPerSuite = 3
	riskPasses     = 9
)

// suite is one cold figure suite: a fresh Lab, then the steps of
// BenchmarkFullSuite in order, with the Lab's shared profile passes
// timed first so each figure's time is its own work.
type suite struct {
	lab    *experiments.Lab
	report *market.Report
	out    bytes.Buffer // every Render output, in step order
}

// suiteStep is one timed step; its name is the experiments.<name>_s
// per-layer metric.
type suiteStep struct {
	name string
	run  func(s *suite) error
}

func checkf(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

var suiteSteps = []suiteStep{
	{"profiles", func(s *suite) error {
		ps, err := s.lab.Profiles()
		if err != nil {
			return err
		}
		hs, err := s.lab.HistoricalProfiles()
		if err != nil {
			return err
		}
		for i := range ps {
			fmt.Fprintf(&s.out, "profile %d: %d visits %d places; history %d visits\n",
				i, ps[i].NumVisits(), ps[i].NumPlaces(), hs[i].NumVisits())
		}
		return checkf(len(ps) == s.lab.World().NumUsers() && len(hs) == len(ps), "profiles: %d of %d users", len(ps), s.lab.World().NumUsers())
	}},
	{"market", func(s *suite) error {
		r, err := experiments.MarketStudy(s.lab.Config())
		if err != nil {
			return err
		}
		s.report = r
		s.out.WriteString(r.RenderSectionIII() + r.RenderTableI() + r.RenderFigure1())
		cdf := r.IntervalECDF().At(10)
		return errors.Join(
			checkf(r.Declaring == 1137 && r.Background == 102, "section III counts drifted: %d declaring, %d background", r.Declaring, r.Background),
			checkf(r.TableI["fine&coarse"]["gps"] == 32, "Table I drifted"),
			checkf(cdf >= 0.57 && cdf <= 0.59, "Figure 1 knee drifted: %v", cdf))
	}},
	{"figure2", func(s *suite) error {
		r, err := experiments.Figure2(s.lab)
		if err != nil {
			return err
		}
		s.out.WriteString(r.Render())
		return checkf(len(r.Rows) == 6 && r.Rows[0].PoIs > 0, "Figure 2 degenerate: %+v", r.Rows)
	}},
	{"figure3", func(s *suite) error {
		r, err := experiments.Figure3(s.lab, s.report)
		if err != nil {
			return err
		}
		s.out.WriteString(r.Render())
		return checkf(len(r.Rows) > 0 && r.Rows[0].PoIs > 0 && r.Rows[0].Fraction >= 0.99 && r.Rows[0].SensitiveTotal[2] > 0,
			"Figure 3 degenerate: %+v", r.Rows)
	}},
	{"figure4", func(s *suite) error {
		r, err := experiments.Figure4(s.lab)
		if err != nil {
			return err
		}
		s.out.WriteString(r.Render())
		ok := len(r.FromStart) > 0 && len(r.RandomStart) > 0 && len(r.Sweep) > 0 && r.Sweep[0].Detected != nil
		if ok {
			row := r.Sweep[0]
			ok = row.P2Faster+row.P1Faster+row.BothEqual > 0
		}
		return checkf(ok, "Figure 4 degenerate")
	}},
	{"figure5", func(s *suite) error {
		r, err := experiments.Figure5(s.lab)
		if err != nil {
			return err
		}
		s.out.WriteString(r.Render())
		return checkf(r.Profiles > 0 && len(r.Rows) > 0, "Figure 5 degenerate")
	}},
	{"combined", func(s *suite) error {
		r, err := experiments.Combined(s.lab)
		if err != nil {
			return err
		}
		s.out.WriteString(r.Render())
		return checkf(len(r.Rows) > 0 && r.Rows[0].DetectedCombined > 0, "combined detector degenerate")
	}},
	{"ablation_extractor", func(s *suite) error {
		r, err := experiments.AblationExtractor(s.lab)
		if err != nil {
			return err
		}
		s.out.WriteString(r.Render())
		return checkf(len(r.Rows) > 0 && r.Rows[0].Buffer > 0, "extractor ablation degenerate")
	}},
	{"ablation_mitigation", func(s *suite) error {
		r, err := experiments.AblationMitigation(s.lab)
		if err != nil {
			return err
		}
		s.out.WriteString(r.Render())
		return checkf(len(r.Rows) > 0, "mitigation ablation degenerate")
	}},
}

// labConfig is the Quick configuration on the given world seed (1 is
// Quick itself). The market keeps its default seed, so the §III counts
// stay pinned.
func labConfig(worldSeed int64) experiments.Config {
	cfg := experiments.Quick()
	cfg.Mobility.Seed = worldSeed
	return cfg
}

// runSuite runs one cold suite, calling step (if non-nil) with each
// step's duration. It returns the digest of every rendered output and
// the Lab, still open.
func runSuite(worldSeed int64, step func(name string, d time.Duration)) ([32]byte, *experiments.Lab, error) {
	l, err := experiments.NewLab(labConfig(worldSeed))
	if err != nil {
		return [32]byte{}, nil, err
	}
	s := &suite{lab: l}
	for _, st := range suiteSteps {
		t0 := time.Now()
		if err := st.run(s); err != nil {
			l.Close()
			return [32]byte{}, nil, fmt.Errorf("%s: %w", st.name, err)
		}
		if step != nil {
			step(st.name, time.Since(t0))
		}
	}
	return sha256.Sum256(s.out.Bytes()), l, nil
}

// riskDigest is the SHA-256 of a risk pass's final risks, in user order.
func riskDigest(final map[string]stream.Risk) string {
	ids := make([]string, 0, len(final))
	for id := range final {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%+v\n", final[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// riskPass is the input of the figure workload's batch risk pass: the
// Quick world's users, every fix fed in the service's batches and
// scored at the engine's recompute points against full-period
// references.
type riskPass struct {
	w     workload
	cfg   stream.Config
	refs  *refSet
	users []replayUser
}

// setupFigures is one set-up of the figure workload: the cold Lab is
// constructed (and dropped; each suite builds its own), and the risk
// pass's world, references and traces are generated.
func setupFigures(w workload, worldSeed int64) (*riskPass, error) {
	l, err := experiments.NewLab(labConfig(worldSeed))
	if err != nil {
		return nil, err
	}
	l.Close()
	rp := &riskPass{w: figuresService(w)}
	mc := rp.w.worldConfig(worldSeed)
	world, err := mobility.New(mc)
	if err != nil {
		return nil, err
	}
	rp.cfg = rp.w.engineConfig(mc)
	if rp.refs, err = buildReferences(world, rp.w, rp.cfg); err != nil {
		return nil, err
	}
	rp.users = make([]replayUser, rp.w.users)
	for u := range rp.users {
		pts, err := userFixes(world, rp.w, u, time.Time{}, time.Time{})
		if err != nil {
			return nil, err
		}
		rp.users[u] = replayUser{id: stream.UserID(u), fixes: pts}
	}
	return rp, nil
}

func (rp *riskPass) run() (*replayOut, error) {
	return batchReplay(rp.users, rp.cfg, rp.refs, rp.w.batch, true, nil)
}

// runFigures is one measured run of the figure workload: repeated cold
// suites (at least two, so their digests can be compared), each
// followed by batch risk passes over the same world.
func runFigures(w workload, sd seeds, seconds int) (*result, error) {
	var setups []float64
	var rp *riskPass
	for i := 0; i < figureSetups; i++ {
		t0 := time.Now()
		var err error
		if rp, err = setupFigures(w, sd.world); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Each batch risk pass adds the median of its per-call times. A
	// pass allocates its builders afresh, and from pass to pass the
	// median Feed batch takes either about 0.9 µs or about 1.5 µs on
	// the same inputs, in no order, so the figures are means over the
	// passes: a median of a two-valued set would flip between the
	// values from run to run.
	var feed, score []float64
	var fixes int
	var busy time.Duration
	var firstRisk string
	passes := 0
	correct := true
	riskPass := func() error {
		br, err := rp.run()
		if err != nil {
			return err
		}
		passes++
		d := riskDigest(br.final)
		switch {
		case sd.world == 1 && d != quickRiskDigest:
			fmt.Fprintf(os.Stderr, "perfbench: risk pass digest %s, pinned %s\n", d, quickRiskDigest)
			correct = false
		case passes == 1:
			firstRisk = d
		case d != firstRisk:
			fmt.Fprintf(os.Stderr, "perfbench: risk pass %d digest %s, pass 1 %s\n", passes, d, firstRisk)
			correct = false
		}
		feed, score = append(feed, quantile(br.feed, 0.5)), append(score, quantile(br.score, 0.5))
		fixes, busy = fixes+br.fixes, busy+br.busy
		return nil
	}

	var suites []float64
	var first [32]byte
	var lab *experiments.Lab
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(suites) < 2 || time.Now().Before(deadline) {
		if lab != nil {
			lab.Close()
		}
		t0 := time.Now()
		d, l, err := runSuite(sd.world, nil)
		if err != nil {
			return nil, err
		}
		suites = append(suites, time.Since(t0).Seconds())
		lab = l
		switch {
		case sd.world == 1 && hex.EncodeToString(d[:]) != quickSuiteDigest:
			fmt.Fprintf(os.Stderr, "perfbench: suite %d rendered digest %x, pinned %s\n", len(suites), d, quickSuiteDigest)
			correct = false
		case len(suites) == 1:
			first = d
		case d != first:
			fmt.Fprintf(os.Stderr, "perfbench: suite %d rendered digest %x, suite 1 %x\n", len(suites), d, first)
			correct = false
		}
		for i := 0; i < passesPerSuite; i++ {
			if err := riskPass(); err != nil {
				return nil, err
			}
		}
	}
	defer lab.Close()
	for passes < riskPasses {
		if err := riskPass(); err != nil {
			return nil, err
		}
	}
	res := &result{
		Correct: correct, Attempted: len(suites), Failed: 0,
		Metrics: map[string]metric{
			"setup_s":               {median(setups), "s"},
			"suite_s":               {median(suites), "s"},
			"ingest_p50_ms":         {mean(feed), "ms"},
			"risk_p50_ms":           {mean(score), "ms"},
			"sustained_fixes_per_s": {float64(fixes) / busy.Seconds(), "fixes/s"},
		},
	}
	mem, err := readMemory()
	if err != nil {
		return nil, err
	}
	runtime.KeepAlive(lab)
	res.Metrics["state_heap_mb"] = metric{mem.HeapMiB, "MiB"}
	res.Metrics["peak_rss_mb"] = metric{mem.PeakMiB, "MiB"}
	return res, nil
}

// memory is a process's retained and peak memory.
type memory struct {
	HeapMiB float64 `json:"heap_mib"` // live heap after a forced GC
	PeakMiB float64 `json:"peak_mib"` // peak resident set (VmHWM) since exec
}

func readMemory() (memory, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := memory{HeapMiB: float64(ms.HeapAlloc) / (1 << 20)}
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return m, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return m, err
			}
			m.PeakMiB = kb / 1024
			return m, nil
		}
	}
	return m, errors.New("no VmHWM in /proc/self/status")
}
