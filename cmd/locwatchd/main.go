// Command locwatchd is the streaming privacy-risk server: the paper's
// offline profile/risk pipeline (privacyeval) turned into a long-
// running service. It ingests location fixes over HTTP, maintains
// per-user profile state in sharded bounded-memory maps, and serves
// live risk metrics — PoI_total, PoI_sensitive, His_bin and
// Deg_anonymity — per user.
//
// Usage:
//
//	locwatchd [-addr host:port] [-users N] [-days N] [-seed N]
//	          [-interval d] [-shards N] [-recompute N] [-flush d]
//	          [-replay] [-refs]
//
// API:
//
//	POST   /v1/users/{id}/fixes  {"fixes":[{"lat":..,"lon":..,"t":".."}]}
//	GET    /v1/users/{id}/risk   live risk snapshot (JSON)
//	DELETE /v1/users/{id}        evict (park) the user's buffers
//	GET    /v1/users             known user ids
//	GET    /healthz              liveness
//	GET    /metrics              Prometheus text exposition
//
// Each fix's t is Go's JSON form of time.Time: an RFC 3339 string with
// optional fractional seconds and a Z or ±hh:mm zone, such as
// "2026-03-02T08:00:00Z" or "2026-03-02T08:00:00.5+08:00".
//
// -refs builds per-user reference profiles from the simulated world at
// startup so His_bin and the identification adversary carry signal;
// without it the server reports exposure metrics only. -replay streams
// the whole simulated population into the engine (randomized batches,
// interleaved users) before serving — the one-command demo CI smokes.
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight ingests complete
// and reach shard state before the engine closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"locwatch/internal/core"
	"locwatch/internal/mobility"
	"locwatch/internal/obs"
	"locwatch/internal/privlog"
	"locwatch/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("locwatchd: ")

	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	users := flag.Int("users", 24, "simulated population size (replay and references)")
	days := flag.Int("days", 8, "simulated days per user")
	seed := flag.Int64("seed", 0, "world seed override (0 = default)")
	interval := flag.Duration("interval", time.Minute, "replay/reference sampling interval")
	shards := flag.Int("shards", 0, "state shards (0 = default 8)")
	recompute := flag.Int("recompute", 0, "debounce threshold: recompute risk every N fixes (0 = default 512)")
	flush := flag.Duration("flush", 0, "wall-clock recompute interval for quiet users (0 = off)")
	replay := flag.Bool("replay", false, "replay the simulated population into the engine at startup")
	refs := flag.Bool("refs", false, "build per-user reference profiles at startup (His_bin / Deg_anonymity)")
	flag.Parse()

	mc := mobility.DefaultConfig()
	mc.Users = *users
	mc.Days = *days
	if *seed != 0 {
		mc.Seed = *seed
	}
	world, err := mobility.New(mc)
	if err != nil {
		log.Fatalf("world: %v", err)
	}

	cfg := stream.Config{
		Anchor:         mc.CityCenter,
		Shards:         *shards,
		RecomputeEvery: *recompute,
		FlushInterval:  *flush,
		Obs:            obs.NewRegistry(),
	}
	if *refs {
		cfg.References, err = buildReferences(world, cfg, *interval)
		if err != nil {
			log.Fatalf("references: %v", err)
		}
		log.Printf("built %d reference profiles", world.NumUsers())
	}

	eng, err := stream.New(cfg)
	if err != nil {
		log.Fatalf("engine: %v", err)
	}
	plog := privlog.NewLogger("locwatchd", os.Stderr)
	srv := stream.NewServer(*addr, eng, cfg.Obs, plog)

	// Replay runs to completion before the listener opens: the world is
	// a single-goroutine producer (its lazy per-user state is not
	// synchronized), and a fully-populated engine is what the smoke
	// flow queries anyway. Live traffic is the HTTP ingest path.
	if *replay {
		stats, err := stream.Replay(context.Background(), eng, world,
			stream.ReplayConfig{Interval: *interval, MinBatch: 16, MaxBatch: 512, Seed: mc.Seed})
		if err != nil {
			plog.Printf(privlog.CategorySim, "replay: %v", err)
			os.Exit(1)
		}
		log.Printf("replay done: %d users, %d fixes in %d batches", stats.Users, stats.Fixes, stats.Batches)
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving on http://%s (risk: /v1/users/{id}/risk)", *addr)
		errc <- srv.HTTP.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("signal %v: draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		log.Printf("drained cleanly")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}
}

// buildReferences runs the batch pipeline once per user at startup:
// the full-period profile is both the user's His_bin reference and a
// candidate in the identification adversary's set.
func buildReferences(w *mobility.World, cfg stream.Config, interval time.Duration) (*stream.References, error) {
	byUser := make(map[string]*core.Profile, w.NumUsers())
	candidates := make([]*core.Profile, 0, w.NumUsers())
	for u := 0; u < w.NumUsers(); u++ {
		src, err := w.Trace(u, interval)
		if err != nil {
			return nil, err
		}
		prof, err := core.BuildProfile(src, cfg.Anchor, cfg.Core)
		if err != nil {
			return nil, err
		}
		byUser[stream.UserID(u)] = prof
		candidates = append(candidates, prof)
	}
	return stream.NewReferences(cfg.Pattern, byUser, candidates)
}
