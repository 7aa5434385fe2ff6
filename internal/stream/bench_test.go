package stream

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkStreamIngest measures the hot ingest path end to end:
// producer-side submit plus shard-side feed, 64-fix batches, default
// debounce. The shard goroutine runs concurrently, so ns/op is the
// producer's cost under a keeping-up consumer.
func BenchmarkStreamIngest(b *testing.B) {
	e, err := New(Config{Anchor: testAnchor, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	const batch = 64
	g := newGen(1, 0)
	pts := g.next(b.N * batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Ingest(ctx, "bench", pts[i*batch:(i+1)*batch]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := e.SyncAll(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRiskQuery measures the serving path: a round trip through
// the owning shard for an up-to-date snapshot (no recompute — the
// debounced scheduler's steady state for a quiet user).
func BenchmarkRiskQuery(b *testing.B) {
	e, err := New(Config{Anchor: testAnchor, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	const users = 16
	for u := 0; u < users; u++ {
		g := newGen(int64(u)+1, float64(u)*200)
		if err := e.Ingest(ctx, fmt.Sprintf("bench-%02d", u), g.next(2000)); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.SyncAll(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Risk(ctx, fmt.Sprintf("bench-%02d", i%users)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPIngest is the in-process HTTP rung: NewMux(...).ServeHTTP
// of one canonical 32-fix POST per op, from request construction to
// the 202, including the engine enqueue. Ops rotate over 64 users, each
// continuing its own stay-and-walk stream, so every op feeds the same
// kind of batch to an existing user whatever b.N is. Bodies are
// encoded before the timer starts.
func BenchmarkHTTPIngest(b *testing.B) {
	e, err := New(Config{Anchor: testAnchor, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	mux := NewMux(e, nil, nil)
	const users, batch = 64, 32
	gens := make([]*gen, users)
	paths := make([]string, users)
	for u := range gens {
		gens[u] = newGen(int64(u)+1, float64(u)*200)
		paths[u] = fmt.Sprintf("/v1/users/bench-%02d/fixes", u)
	}
	post := func(i int, body []byte) {
		req := httptest.NewRequest(http.MethodPost, paths[i%users], bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("status %d", rec.Code)
		}
	}
	// Every user exists and the pools are warm before timing starts.
	for i := 0; i < 4*users; i++ {
		post(i, fixesBody(gens[i%users].next(batch)).Bytes())
	}
	ctx := context.Background()
	if err := e.SyncAll(ctx); err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = fixesBody(gens[i%users].next(batch)).Bytes()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(i, bodies[i])
	}
	b.StopTimer()
	if err := e.SyncAll(ctx); err != nil {
		b.Fatal(err)
	}
}
