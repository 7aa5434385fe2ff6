package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/experiments"
	"locwatch/internal/mobility"
	"locwatch/internal/stream"
	"locwatch/internal/trace"
)

// workload is one named input set of the benchmark. Service workloads
// drive a locwatchd-equivalent server; the figure workload runs the
// cold experiments suite.
type workload struct {
	name    string
	service bool

	users, days int
	interval    time.Duration // sampling interval of the synthetic traces
	batch       int           // fixes per POST

	refs           bool         // full-period profiles as His_bin references and candidates
	pattern        core.Pattern // histogram pattern the engine scores under
	recomputeEvery int          // stream.Config.RecomputeEvery; 0 = engine default
	riskEvery      int          // one risk GET after every riskEvery POSTs; 0 = writes only

	nominal float64 // fixes per second of the nominal-rate phase
}

// A service workload's nominal rate is one fixed share of its
// closed-loop capacity, as closed-loop sizing runs against the server
// measured it on a 2-vCPU x86-64 VM, taken at the low end of the
// measured range.
const (
	nominalShare = 0.125
	ingestCap    = 1_100_000 // ingest-norefs, fixes/s (1.1–1.4 M measured)
	riskCap      = 126_240   // 24 users x 24 days with references and reads, fixes/s (3 945–3 954 POSTs/s measured)
)

var workloads = []workload{
	{
		name: "ingest-norefs", service: true,
		users: 64, days: 8, interval: 10 * time.Second, batch: 32,
		nominal: ingestCap * nominalShare,
	},
	{
		name: "figures-quick",
		// The batch risk pass over the Quick world feeds the same
		// 32-fix batches as the service workloads and scores at the
		// engine's default cadence.
		interval: 10 * time.Second, batch: 32,
		pattern: core.PatternMovement, recomputeEvery: 512,
	},
}

// wraps reports whether the workload's schedule may start over on new
// accounts when its users run out of fixes (see scheduler). Only a
// workload without references can: a new account there is no
// different from one of the population.
func (w workload) wraps() bool { return !w.refs }

// budget is how many timed-phase fixes the generator prepares: one
// nominal-rate run length for a workload that wraps, every fix the
// world has otherwise.
func (w workload) budget(seconds int) int {
	if w.wraps() {
		return int(w.nominal) * seconds
	}
	return math.MaxInt
}

// figuresService is the figure world seen as a service: the Quick
// population streamed to a default engine with references, for the
// traced run's service-layer numbers on figures-quick.
func figuresService(w workload) workload {
	q := experiments.Quick().Mobility
	return workload{
		name: w.name, service: true,
		users: q.Users, days: q.Days, interval: w.interval, batch: w.batch,
		refs: true, pattern: w.pattern, recomputeEvery: w.recomputeEvery,
		riskEvery: 2, nominal: riskCap * nominalShare,
	}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// worldConfig is the synthetic population the workload runs on.
func (w workload) worldConfig(worldSeed int64) mobility.Config {
	mc := mobility.DefaultConfig()
	mc.Users = w.users
	mc.Days = w.days
	mc.Seed = worldSeed
	return mc
}

// engineConfig is the stream.Config the server (and the traced
// in-process replay) runs under, references aside.
func (w workload) engineConfig(mc mobility.Config) stream.Config {
	return stream.Config{
		Anchor:         mc.CityCenter,
		RecomputeEvery: w.recomputeEvery,
		Pattern:        w.pattern,
	}
}

// refSet is a workload's scoring references: each user's full-period
// profile is its His_bin reference and one of the identification
// adversary's candidates (as locwatchd -refs builds them). The parts
// are kept so the traced run can time HisBin and Identify on their own.
type refSet struct {
	byUser map[string]*core.Profile
	adv    *core.Adversary
	refs   *stream.References
}

// streamRefs returns the engine's view of the set; nil for no set.
func (r *refSet) streamRefs() *stream.References {
	if r == nil {
		return nil
	}
	return r.refs
}

func newRefSet(pattern core.Pattern, profiles []*core.Profile) (*refSet, error) {
	r := &refSet{byUser: make(map[string]*core.Profile, len(profiles))}
	for u, p := range profiles {
		r.byUser[stream.UserID(u)] = p
	}
	var err error
	if r.adv, err = core.NewAdversary(profiles); err != nil {
		return nil, err
	}
	if r.refs, err = stream.NewReferences(pattern, r.byUser, profiles); err != nil {
		return nil, err
	}
	return r, nil
}

// buildReferences runs the batch pipeline over every user's full
// period at the workload's sampling interval.
func buildReferences(world *mobility.World, w workload, cfg stream.Config) (*refSet, error) {
	profiles := make([]*core.Profile, world.NumUsers())
	for u := range profiles {
		src, err := world.Trace(u, w.interval)
		if err != nil {
			return nil, err
		}
		if profiles[u], err = core.BuildProfile(src, cfg.Anchor, cfg.Core); err != nil {
			return nil, fmt.Errorf("reference profile of user %d: %w", u, err)
		}
	}
	return newRefSet(cfg.Pattern, profiles)
}

// drain reads src until EOF, handing each point to fn.
func drain(src trace.Source, fn func(trace.Point) error) error {
	for {
		p, err := src.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(p); err != nil {
			return err
		}
	}
}

// userFixes returns the user's fixes in [from, to) (zero bounds are
// open), at the workload's sampling interval.
func userFixes(world *mobility.World, w workload, u int, from, to time.Time) ([]trace.Point, error) {
	src, err := world.Trace(u, w.interval)
	if err != nil {
		return nil, err
	}
	var pts []trace.Point
	err = drain(trace.NewTimeWindow(src, from, to), func(p trace.Point) error {
		pts = append(pts, p)
		return nil
	})
	return pts, err
}

// encodeBatch renders fixes in the POST /v1/users/{id}/fixes wire form.
func encodeBatch(pts []trace.Point) ([]byte, error) {
	req := stream.IngestRequest{Fixes: make([]stream.Fix, len(pts))}
	for i, p := range pts {
		req.Fixes[i] = stream.Fix{Lat: p.Pos.Lat, Lon: p.Pos.Lon, T: p.T}
	}
	return json.Marshal(req)
}
