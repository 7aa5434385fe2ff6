package main

import (
	"fmt"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/poi"
	"locwatch/internal/stream"
	"locwatch/internal/trace"
)

// replayUser is one user's input to a batch replay: fixes fed in
// batches and scored wherever the engine would recompute.
type replayUser struct {
	id    string
	fixes []trace.Point
}

// replayOut holds what a batch replay measured. Times are per call;
// the per-layer slices are filled only when a tracer is given.
type replayOut struct {
	final map[string]stream.Risk // each user's risk after every fix, as SyncAll serves it

	feed  []float64     // ms per ProfileBuilder.Feed batch
	score []float64     // ms per Peek plus ComputeRisk at a recompute point
	fixes int           // fixes fed
	busy  time.Duration // time spent in those feeds and scorings

	generated int // fixes synthesized under mobility.trace spans

	coreNs, poiNs                        []float64 // ns per fix of one Feed batch
	peekUs, computeUs, hisbinUs, identUs []float64
	visits                               []float64
}

// batchReplay is the batch side of the service: per user, a
// core.ProfileBuilder fed the same fixes in the workload's batches,
// with risk computed by stream.ComputeRisk at the engine's recompute
// points (when score is set) and once at the end. With a tracer it
// also times each layer's public call on the same inputs: a separate
// poi.Extractor fed the same batches, Peek, HisBin and Identify.
func batchReplay(users []replayUser, cfg stream.Config, refs *refSet, batch int, score bool, tr *tracer) (*replayOut, error) {
	cfg.References = refs.streamRefs()
	cfg = cfg.WithDefaults()
	out := &replayOut{final: make(map[string]stream.Risk, len(users))}
	for _, u := range users {
		if len(u.fixes) == 0 {
			continue // never ingested: the server does not know the user
		}
		b, err := core.NewProfileBuilder(cfg.Anchor, cfg.Core)
		if err != nil {
			return nil, err
		}
		var ex *poi.Extractor
		if tr != nil {
			p := cfg.Core.Extractor
			if p == (poi.Params{}) {
				p = core.DefaultParams().Extractor
			}
			if ex, err = poi.NewExtractor(p, func(poi.StayPoint) {}); err != nil {
				return nil, err
			}
		}
		dirty := 0
		for start := 0; start < len(u.fixes); {
			end := min(start+batch, len(u.fixes))
			pts := u.fixes[start:end]
			if ex != nil {
				sp := tr.start("poi.feed", nil)
				for _, p := range pts {
					if err := ex.Feed(p); err != nil {
						return nil, err
					}
				}
				out.poiNs = append(out.poiNs, float64(sp.end())/float64(len(pts)))
			}
			sp := tr.start("core.feed", nil)
			t0 := time.Now()
			for _, p := range pts {
				if err := b.Feed(p); err != nil {
					return nil, fmt.Errorf("user %s: %w", u.id, err)
				}
			}
			d := time.Since(t0)
			sp.end()
			if tr != nil {
				out.coreNs = append(out.coreNs, float64(d)/float64(len(pts)))
			}
			out.feed = append(out.feed, ms(d))
			out.fixes += len(pts)
			out.busy += d
			dirty += len(pts)
			start = end
			if !score || dirty < cfg.RecomputeEvery {
				continue
			}
			dirty = 0
			rsp := tr.start("recompute", nil)
			t1 := time.Now()
			psp := tr.start("core.peek", rsp)
			prof := b.Peek()
			pd := psp.end()
			csp := tr.start("stream.compute_risk", rsp)
			if _, err := stream.ComputeRisk(u.id, prof, cfg.References, cfg.SensitiveMaxVisits, cfg.Pattern); err != nil {
				return nil, err
			}
			cd := csp.end()
			d = time.Since(t1)
			rsp.end()
			out.score = append(out.score, ms(d))
			out.busy += d
			if tr == nil {
				continue
			}
			out.peekUs = append(out.peekUs, us(pd))
			out.computeUs = append(out.computeUs, us(cd))
			out.visits = append(out.visits, float64(prof.NumVisits()))
			if refs == nil {
				continue
			}
			if ref := refs.byUser[u.id]; ref != nil {
				hsp := tr.start("core.hisbin", nil)
				_, _ = ref.HisBin(prof, cfg.Pattern) // timed only; ComputeRisk checked the error
				out.hisbinUs = append(out.hisbinUs, us(hsp.end()))
			}
			if refs.adv != nil {
				isp := tr.start("core.identify", nil)
				_, _ = refs.adv.Identify(prof, cfg.Pattern) // timed only; ComputeRisk checked the error
				out.identUs = append(out.identUs, us(isp.end()))
			}
		}
		r, err := stream.ComputeRisk(u.id, b.Peek(), cfg.References, cfg.SensitiveMaxVisits, cfg.Pattern)
		if err != nil {
			return nil, err
		}
		r.Fixes = len(u.fixes)
		out.final[u.id] = r
		b.Release()
		if ex != nil {
			ex.Release()
		}
	}
	return out, nil
}
