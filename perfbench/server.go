package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"locwatch/internal/mobility"
	"locwatch/internal/obs"
	"locwatch/internal/stream"
)

// readyLine is what the server process prints once it listens.
type readyLine struct {
	Addr string `json:"addr"`
}

// serviceState is a locwatchd-equivalent engine with the workload's
// references, shared by the server process and the traced in-process
// replay.
type serviceState struct {
	world *mobility.World
	refs  *refSet // nil without references
	eng   *stream.Engine
	reg   *obs.Registry

	worldS, refsS float64
}

// newServiceState builds the world, the references and the engine.
func newServiceState(w workload, worldSeed int64) (*serviceState, error) {
	t0 := time.Now()
	mc := w.worldConfig(worldSeed)
	world, err := mobility.New(mc)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	st := &serviceState{world: world, reg: obs.NewRegistry()}
	st.worldS = time.Since(t0).Seconds()

	t1 := time.Now()
	cfg := w.engineConfig(mc)
	if w.refs {
		if st.refs, err = buildReferences(world, w, cfg); err != nil {
			return nil, fmt.Errorf("references: %w", err)
		}
		cfg.References = st.refs.refs
	}
	st.refsS = time.Since(t1).Seconds()
	cfg.Obs = st.reg
	if st.eng, err = stream.New(cfg); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return st, nil
}

// serve is the server process: a stream.NewServer on the workload's
// configuration, plus /bench/ control routes the load generator uses
// to drain the shards, read the process's memory and stop it.
func serve(w workload, worldSeed int64) error {
	ctx := context.Background()
	st, err := newServiceState(w, worldSeed)
	if err != nil {
		return err
	}
	srv := stream.NewServer("127.0.0.1:0", st.eng, st.reg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.eng.Close()
		return err
	}
	quit := make(chan struct{})
	api := srv.HTTP.Handler
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("POST /bench/sync", func(rw http.ResponseWriter, r *http.Request) {
		if err := st.eng.SyncAll(r.Context()); err != nil {
			http.Error(rw, err.Error(), http.StatusServiceUnavailable)
			return
		}
		rw.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /bench/memory", func(rw http.ResponseWriter, _ *http.Request) {
		m, err := readMemory()
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(rw).Encode(m) // a generator that went away learns nothing more
	})
	mux.HandleFunc("POST /bench/quit", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusNoContent)
		select {
		case <-quit:
		default:
			close(quit)
		}
	})
	srv.HTTP.Handler = mux

	errc := make(chan error, 1)
	go func() { errc <- srv.HTTP.Serve(ln) }()
	go func() {
		exitWithParent()
		os.Exit(1) // the benchmark is gone; nobody will ask this server to drain
	}()
	ready := readyLine{Addr: ln.Addr().String()}
	if err := json.NewEncoder(os.Stdout).Encode(ready); err != nil {
		return err
	}

	select {
	case <-quit:
	case err := <-errc:
		st.eng.Close()
		return err
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
