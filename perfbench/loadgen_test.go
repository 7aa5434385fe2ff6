package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestStallChargedToQueuedRequests drives a fake server that stalls
// once. Every request scheduled while the stall lasted must be charged
// the wait from its own scheduled time, and the generator, whose
// requests wait in the connection rather than at the generator, must
// still have sent each one on time.
func TestStallChargedToQueuedRequests(t *testing.T) {
	const (
		stallAt = 20
		stall   = 150 * time.Millisecond
		n       = 200
		every   = time.Millisecond
	)
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if seen.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	h := newHTTPLanes(srv.URL, 1)
	defer h.close()

	ops := make([]*op, n)
	sched := make([]time.Duration, n)
	for i := range ops {
		ops[i] = &op{kind: opIngest, user: 0, body: []byte(`{"fixes":[]}`)}
		sched[i] = time.Duration(i) * every
	}
	res := h.run([][]*op{ops}, [][]time.Duration{sched})[0]
	stalled := checkStallCharged(t, res, stallAt, stall, every)
	late := 0
	for _, s := range res {
		if s.sched < stalled.done && s.late() > stall/3 {
			late++
		}
	}
	if late > 0 {
		t.Errorf("%d requests due during the stall were sent more than %v late; the open loop must not wait for the server", late, stall/3)
	}
}

// TestStallMakesSyncLaneLate runs the in-process transport's loop,
// whose ops are calls, against a call that stalls once: the stall is
// charged to every op due during it, and the generator reports itself
// late.
func TestStallMakesSyncLaneLate(t *testing.T) {
	const (
		stallAt = 20
		stall   = 150 * time.Millisecond
		n       = 200
		every   = time.Millisecond
	)
	calls := 0
	do := doer(func(int, *op) (int, error) {
		if calls++; calls == stallAt {
			time.Sleep(stall)
		}
		return http.StatusAccepted, nil
	})
	ops := make([]*op, n)
	sched := make([]time.Duration, n)
	for i := range ops {
		ops[i] = &op{kind: opIngest}
		sched[i] = time.Duration(i) * every
	}
	res := do.run([][]*op{ops}, [][]time.Duration{sched})[0]
	checkStallCharged(t, res, stallAt, stall, every)
	ps := summarize([][]sample{res}, false)
	if late := quantile(ps.late, 0.99); late < ms(stall)/2 {
		t.Errorf("generator lateness p99 %.1f ms, want it to show the %v stall", late, stall)
	}
}

// checkStallCharged checks that the stalled request and every request
// scheduled before it completed waited at least until it completed,
// and returns the stalled request's sample.
func checkStallCharged(t *testing.T, res []sample, stallAt int, stall, every time.Duration) sample {
	t.Helper()
	stalled := res[stallAt-1]
	if stalled.latency() < stall {
		t.Fatalf("stalled request latency %v, want at least %v", stalled.latency(), stall)
	}
	charged := 0
	for _, s := range res[stallAt:] {
		if s.sched >= stalled.done {
			break
		}
		charged++
		if want := stalled.done - s.sched; s.latency() < want {
			t.Errorf("request due at %v: latency %v, want at least %v (the stall left it waiting)", s.sched, s.latency(), want)
		}
		if s.failed(time.Second) {
			t.Errorf("request due at %v failed: status %d, err %v", s.sched, s.status, s.err)
		}
	}
	if min := int(stall/every) - 5; charged < min {
		t.Fatalf("%d requests scheduled during the stall, want at least %d", charged, min)
	}
	return stalled
}

// TestArrivalsRate checks the Poisson schedule's mean rate and bounds.
func TestArrivalsRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := arrivals(rng, 1000, 10*time.Second, 1<<30)
	if len(ts) < 9700 || len(ts) > 10300 {
		t.Fatalf("%d arrivals in 10 s at 1000/s", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] || ts[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or range", i, ts[i])
		}
	}
	if got := arrivals(rng, 1000, time.Second, 5); len(got) != 5 {
		t.Fatalf("cap of 5 arrivals gave %d", len(got))
	}
}
