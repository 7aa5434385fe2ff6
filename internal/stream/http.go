package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"locwatch/internal/obs"
	"locwatch/internal/privlog"
)

// Fix is the wire form of one GPS fix. Coordinates exist on the wire
// by definition (this is the ingest boundary the paper's threat model
// is about); they are decoded straight into trace.Point and never
// formatted into a log line or error — privlog guards every
// diagnostic path out of this package.
type Fix struct {
	Lat float64   `json:"lat"`
	Lon float64   `json:"lon"`
	T   time.Time `json:"t"`
}

// IngestRequest is the POST /v1/users/{id}/fixes body.
type IngestRequest struct {
	Fixes []Fix `json:"fixes"`
}

// IngestResponse acknowledges an accepted batch.
type IngestResponse struct {
	Accepted int `json:"accepted"`
}

// errorBody is the JSON error envelope. Messages are static or carry
// counts only — never request payload.
type errorBody struct {
	Error string `json:"error"`
}

// fixWireBytes is the per-fix share of bodyLimit. A fix whose
// coordinates use their full integer width (|lat| ≥ 10, |lon| ≥ 100)
// is at most 95 bytes on the wire even with 17 significant digits and
// a nanosecond, zoned t,
//
//	{"lat":-27.255590020326423,"lon":-115.10215709575122,"t":"2026-03-02T08:00:00.123456789-09:30"}
//
// so MaxBatch of them, commas included, fit. Coordinates nearer zero
// print leading zeros (up to 25 bytes each), and a full MaxBatch of
// such fixes can exceed the limit and draw a 413.
const fixWireBytes = 96

// bodyLimit is the most of an ingest body the handler reads.
func bodyLimit(maxBatch int) int64 { return int64(maxBatch+1)*fixWireBytes + 1024 }

// NewMux routes the service API onto the engine:
//
//	POST   /v1/users/{id}/fixes  ingest a batch of fixes
//	GET    /v1/users/{id}/risk   the user's current risk snapshot
//	DELETE /v1/users/{id}        evict (park) the user's state
//	GET    /v1/users             all known user ids
//	GET    /healthz              liveness
//
// When reg is non-nil its diagnostic endpoints (/metrics, /debug/vars,
// /debug/pprof/) are mounted too. logger may be nil (silent).
func NewMux(e *Engine, reg *obs.Registry, logger *privlog.Logger) *http.ServeMux {
	mux := http.NewServeMux()
	a := &api{eng: e, log: logger}
	mux.HandleFunc("POST /v1/users/{id}/fixes", a.ingest)
	mux.HandleFunc("GET /v1/users/{id}/risk", a.risk)
	mux.HandleFunc("DELETE /v1/users/{id}", a.evict)
	mux.HandleFunc("GET /v1/users", a.users)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if reg != nil {
		mux.Handle("/metrics", obs.NewHandler(reg))
		mux.Handle("/debug/", obs.NewHandler(reg))
	}
	return mux
}

type api struct {
	eng *Engine
	log *privlog.Logger
}

func (a *api) logf(c privlog.Category, format string, args ...any) {
	if a.log != nil {
		a.log.Printf(c, format, args...)
	}
}

func (a *api) ingest(w http.ResponseWriter, r *http.Request) {
	userID := r.PathValue("id")
	buf := ingestPool.Get().(*ingestBuf)
	defer ingestPool.Put(buf)
	buf.body.Reset()
	_, readErr := buf.body.ReadFrom(http.MaxBytesReader(w, r.Body, bodyLimit(a.eng.cfg.MaxBatch)))
	var err error
	buf.pts, err = decodeFixes(buf.pts, buf.body.Bytes(), readErr)
	pts := buf.pts
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "request body too large"})
			return
		}
		a.logf(privlog.CategoryParse, "ingest user %s: malformed body", userID)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed JSON body"})
		return
	}
	for i := range pts {
		if !pts[i].Pos.Valid() {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: fmt.Sprintf("fix %d: coordinates out of range", i)})
			return
		}
	}
	if err := a.eng.Ingest(r.Context(), userID, pts); err != nil {
		switch {
		case errors.Is(err, ErrBatchTooLarge):
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("batch of %d fixes exceeds limit %d", len(pts), a.eng.cfg.MaxBatch)})
		case errors.Is(err, ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down"})
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Client went away while we were backpressured; nothing to say.
		default:
			a.logf(privlog.CategoryNetwork, "ingest user %s: %v", userID, err)
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{Accepted: len(pts)})
}

func (a *api) risk(w http.ResponseWriter, r *http.Request) {
	risk, err := a.eng.Risk(r.Context(), r.PathValue("id"))
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownUser):
			writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown user"})
		case errors.Is(err, ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down"})
		default:
			// Poisoned user (e.g. out-of-order fixes): the stored error is
			// already privlog-built, safe to surface.
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusOK, risk)
}

func (a *api) evict(w http.ResponseWriter, r *http.Request) {
	found, err := a.eng.Evict(r.Context(), r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down"})
		return
	}
	if !found {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown user"})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *api) users(w http.ResponseWriter, r *http.Request) {
	ids, err := a.eng.Users(r.Context())
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down"})
		return
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, map[string][]string{"users": ids})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // nothing to do about a dead client
}

// Server couples an http.Server to an Engine with the shutdown order
// that makes draining safe: stop accepting, drain in-flight HTTP
// (every accepted ingest reaches its shard), then close the engine
// (shards drain their queues). An ingest acknowledged with 202 is
// therefore always reflected in the final state.
type Server struct {
	HTTP   *http.Server
	Engine *Engine
}

// NewServer builds a ready-to-run Server listening on addr.
func NewServer(addr string, e *Engine, reg *obs.Registry, logger *privlog.Logger) *Server {
	return &Server{
		HTTP: &http.Server{
			Addr:              addr,
			Handler:           NewMux(e, reg, logger),
			ReadHeaderTimeout: 10 * time.Second,
		},
		Engine: e,
	}
}

// Shutdown gracefully stops the server: HTTP drain first, engine close
// second. The engine error wins only if HTTP drained cleanly.
func (s *Server) Shutdown(ctx context.Context) error {
	httpErr := s.HTTP.Shutdown(ctx)
	//lint:ignore ctxflow the engine drain is bounded by already-queued work and must complete: every 202-acknowledged ingest has to reach shard state
	engErr := s.Engine.Close()
	if httpErr != nil {
		return httpErr
	}
	return engErr
}
