package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"locwatch/internal/privlog"
	"locwatch/internal/trace"
)

// jsonIngest is the reference ingest decode: encoding/json reading the
// size-limited body directly, then range validation and the batch
// count, each mapped to its status. It returns the status and, on 202,
// the points.
func jsonIngest(body []byte, maxBatch int) (int, []trace.Point) {
	var req IngestRequest
	r := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), bodyLimit(maxBatch))
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, nil
		}
		return http.StatusBadRequest, nil
	}
	pts := make([]trace.Point, len(req.Fixes))
	for i, f := range req.Fixes {
		pts[i].Pos.Lat, pts[i].Pos.Lon, pts[i].T = f.Lat, f.Lon, f.T
		if !pts[i].Pos.Valid() {
			return http.StatusBadRequest, nil
		}
	}
	if len(pts) > maxBatch {
		return http.StatusRequestEntityTooLarge, nil
	}
	return http.StatusAccepted, pts
}

// handlerDecode is the handler's decode step on its own: the body read
// in full under the size limit, then decodeFixes.
func handlerDecode(body []byte, maxBatch int) ([]trace.Point, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), bodyLimit(maxBatch)))
	return decodeFixes(nil, buf.Bytes(), err)
}

// samePoints reports the first difference between two decodes: float
// bits, instants, and zones must all match.
func samePoints(got, want []trace.Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		gz, goff := g.T.Zone()
		wz, woff := w.T.Zone()
		switch {
		case math.Float64bits(g.Pos.Lat) != math.Float64bits(w.Pos.Lat),
			math.Float64bits(g.Pos.Lon) != math.Float64bits(w.Pos.Lon):
			return fmt.Errorf("point %d: coordinate bits differ", i)
		case !g.T.Equal(w.T) || gz != wz || goff != woff ||
			g.T.Location().String() != w.T.Location().String():
			return fmt.Errorf("point %d: time %v, want %v", i, g.T, w.T)
		}
	}
	return nil
}

func serveIngest(mux http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/users/alice/fixes", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestIngestDecodeMatchesJSON pins the handler's status and decoded
// points on the edge cases of the wire format against the reference
// encoding/json decode, and records which bodies the canonical parser
// takes itself.
func TestIngestDecodeMatchesJSON(t *testing.T) {
	const maxBatch = 4
	limit := int(bodyLimit(maxBatch))
	const fix = `{"lat":39.99,"lon":116.31,"t":"2026-03-02T08:00:00Z"}`
	over := strings.Repeat(" ", limit)
	cases := []struct {
		name   string
		body   string
		status int
		fast   bool // parseFixes accepts the bytes read under the limit
	}{
		{"canonical", `{"fixes":[` + fix + `,` + fix + `]}`, 202, true},
		{"whitespace and key order", " \t\r\n{ \"fixes\" :\n[ { \"t\" : \"2026-03-02T08:00:00.5+08:00\" ,\t\"lon\" : -1.5e2 , \"lat\" : 0.25E+1 } ] }\n", 202, true},
		{"missing keys", `{"fixes":[{"lat":1},{}]}`, 202, true},
		{"empty fixes", `{"fixes":[]}`, 202, true},
		{"empty object", `{}`, 202, false},
		{"trailing bytes", `{"fixes":[` + fix + `]} trailing garbage`, 202, true},
		{"case-variant keys", `{"Fixes":[{"Lat":1,"LON":2,"T":"2026-03-02T08:00:00Z"}]}`, 202, false},
		{"unknown field in fix", `{"fixes":[{"lat":1,"lon":2,"acc":5,"t":"2026-03-02T08:00:00Z"}]}`, 202, false},
		{"unknown top-level field", `{"fixes":[` + fix + `],"v":1}`, 202, false},
		{"duplicate key", `{"fixes":[{"lat":1,"lat":2,"lon":3}]}`, 202, false},
		{"duplicate fixes", `{"fixes":[` + fix + `],"fixes":[]}`, 202, false},
		{"null fixes", `{"fixes":null}`, 202, false},
		{"null fix", `{"fixes":[null]}`, 202, false},
		{"null field", `{"fixes":[{"lat":null,"lon":2,"t":"2026-03-02T08:00:00Z"}]}`, 202, false},
		{"null t", `{"fixes":[{"lat":1,"lon":2,"t":null}]}`, 202, false},
		{"escaped t", `{"fixes":[{"lat":1,"lon":2,"t":"2026-03-02T08:00:00\u005a"}]}`, 400, false},
		{"escaped newline in t", `{"fixes":[{"lat":1,"lon":2,"t":"2026-03-02T08:00:00Z\n"}]}`, 400, false},
		{"bad t", `{"fixes":[{"lat":1,"lon":2,"t":"yesterday"}]}`, 400, false},
		{"number 01", `{"fixes":[{"lat":01,"lon":2}]}`, 400, false},
		{"number +1", `{"fixes":[{"lat":+1,"lon":2}]}`, 400, false},
		{"number 1.", `{"fixes":[{"lat":1.,"lon":2}]}`, 400, false},
		{"number 1e400", `{"fixes":[{"lat":1e400,"lon":2}]}`, 400, false},
		{"number -0", `{"fixes":[{"lat":-0,"lon":-0.0}]}`, 202, true},
		{"string number", `{"fixes":[{"lat":"1","lon":2}]}`, 400, false},
		{"empty body", ``, 400, false},
		{"not an object", `[]`, 400, false},
		{"truncated", `{"fixes":[` + fix, 400, false},
		{"over limit, value complete inside", `{"fixes":[` + fix + `]}` + over, 202, true},
		{"over limit, early syntax error", `{"fixes":[x` + over, 400, false},
		{"over limit, value cut off", `{"fixes":[` + fix + `,` + over + fix + `]}`, 413, false},
		{"over MaxBatch by count", `{"fixes":[` + strings.Repeat(fix+`,`, maxBatch) + fix + `]}`, 413, true},
		{"out of range", `{"fixes":[` + fix + `,{"lat":91,"lon":0,"t":"2026-03-02T08:00:00Z"}]}`, 400, true},
	}
	e := mustEngine(t, Config{MaxBatch: maxBatch})
	mux := NewMux(e, nil, nil)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := []byte(c.body)
			refStatus, refPts := jsonIngest(body, maxBatch)
			if refStatus != c.status {
				t.Fatalf("reference status %d, want %d", refStatus, c.status)
			}
			if rec := serveIngest(mux, body); rec.Code != c.status {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, c.status, rec.Body)
			}
			if _, ok := parseFixes(nil, body[:min(len(body), limit)]); ok != c.fast {
				t.Fatalf("parseFixes accepted = %v, want %v", ok, c.fast)
			}
			if c.status != http.StatusAccepted {
				return
			}
			pts, err := handlerDecode(body, maxBatch)
			if err != nil {
				t.Fatal(err)
			}
			if err := samePoints(pts, refPts); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIngestOutOfRangeNamesFix(t *testing.T) {
	e := mustEngine(t, Config{})
	body := `{"fixes":[{"lat":1,"lon":2},{"lat":1,"lon":-180.5}]}`
	rec := serveIngest(NewMux(e, nil, nil), []byte(body))
	if want := `{"error":"fix 1: coordinates out of range"}` + "\n"; rec.Code != 400 || rec.Body.String() != want {
		t.Fatalf("got %d %q, want 400 %q", rec.Code, rec.Body, want)
	}
}

// TestIngestLongestFixAtMaxBatch: MaxBatch copies of the longest
// full-width fix wire form (see fixWireBytes) fit the body limit.
func TestIngestLongestFixAtMaxBatch(t *testing.T) {
	const longest = `{"lat":-27.255590020326423,"lon":-115.10215709575122,"t":"2026-03-02T08:00:00.123456789-09:30"}`
	if len(longest) != fixWireBytes-1 {
		t.Fatalf("longest form is %d bytes", len(longest))
	}
	e := mustEngine(t, Config{})
	n := e.cfg.MaxBatch
	body := `{"fixes":[` + strings.Repeat(longest+",", n-1) + longest + "]}\n"
	rec := serveIngest(NewMux(e, nil, nil), []byte(body))
	if want := fmt.Sprintf(`{"accepted":%d}`, n) + "\n"; rec.Code != 202 || rec.Body.String() != want {
		t.Fatalf("got %d %q, want 202 %q", rec.Code, rec.Body, want)
	}
}

// ingestEnvelope matches every response body the ingest handler can
// write: the only numbers in it are counts.
var ingestEnvelope = regexp.MustCompile(`^\{"(accepted":\d+|error":"(malformed JSON body|request body too large|` +
	`fix \d+: coordinates out of range|batch of \d+ fixes exceeds limit \d+)")\}\n$`)

// FuzzIngestBody drives arbitrary bodies through the ingest handler.
// The handler answers 202, 400 or 413 exactly as the reference
// encoding/json decode does; no coordinate of the request reaches the
// response or the log; and whenever the canonical parser accepts a
// body, its points are the encoding/json decode of the same bytes.
func FuzzIngestBody(f *testing.F) {
	for _, s := range []string{
		`{"fixes":[{"lat":39.99,"lon":116.31,"t":"2026-03-02T08:00:00Z"}]}`,
		`{"fixes":[{"t":"2026-03-02T08:00:00.123456789+05:30","lon":-0.5,"lat":1e-7}]}`,
		`{"fixes":[{"LAT":1,"lon":2,"lat":3}]}`,
		`{"fixes":[{"lat":91.5,"lon":0}]}`,
	} {
		f.Add([]byte(s))
	}
	const maxBatch = 8
	var logBuf bytes.Buffer
	e, err := New(Config{Anchor: testAnchor, Shards: 1, MaxBatch: maxBatch})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	mux := NewMux(e, nil, privlog.NewLogger("stream", &logBuf))
	f.Fuzz(func(t *testing.T, body []byte) {
		logBuf.Reset()
		rec := serveIngest(mux, body)
		refStatus, _ := jsonIngest(body, maxBatch)
		if rec.Code != refStatus {
			t.Fatalf("status %d, reference %d", rec.Code, refStatus)
		}
		if !ingestEnvelope.Match(rec.Body.Bytes()) {
			t.Fatalf("unexpected response body %q", rec.Body)
		}
		var req IngestRequest
		jsonErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		for _, fx := range req.Fixes {
			for _, v := range []float64{fx.Lat, fx.Lon} {
				if s := strconv.FormatFloat(v, 'f', -1, 64); strings.Contains(s, ".") &&
					(strings.Contains(rec.Body.String(), s) || strings.Contains(logBuf.String(), s)) {
					t.Fatalf("coordinate %s echoed", s)
				}
			}
		}
		pts, ok := parseFixes(nil, body)
		if !ok {
			return
		}
		if jsonErr != nil {
			t.Fatalf("parser accepted a body encoding/json rejects: %v", jsonErr)
		}
		want := make([]trace.Point, len(req.Fixes))
		for i, fx := range req.Fixes {
			want[i].Pos.Lat, want[i].Pos.Lon, want[i].T = fx.Lat, fx.Lon, fx.T
		}
		if err := samePoints(pts, want); err != nil {
			t.Fatal(err)
		}
	})
}
