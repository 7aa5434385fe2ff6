package stream

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"

	"locwatch/internal/trace"
)

// ingestBuf is one POST's pooled decode state: the raw body and the
// points decoded from it. Engine.Ingest copies the batch, so both are
// free for the next request as soon as the handler returns.
type ingestBuf struct {
	body bytes.Buffer
	pts  []trace.Point
}

var ingestPool = sync.Pool{New: func() any { return new(ingestBuf) }}

// decodeFixes decodes an ingest body into dst[:0]. body holds the
// bytes read before readErr (nil when the body ended cleanly). The
// canonical form goes through parseFixes; everything else through
// encoding/json over the same bytes followed by readErr, so the result
// — points, or the error the 400/413 mapping keys on — is what
// json.Decoder reading the live body would give.
func decodeFixes(dst []trace.Point, body []byte, readErr error) ([]trace.Point, error) {
	pts, ok := parseFixes(dst[:0], body)
	if ok {
		return pts, nil
	}
	pts = pts[:0]
	var req IngestRequest
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(body), errReader{readErr})).Decode(&req); err != nil {
		return pts, err
	}
	for _, f := range req.Fixes {
		var p trace.Point
		p.Pos.Lat, p.Pos.Lon, p.T = f.Lat, f.Lon, f.T
		pts = append(pts, p)
	}
	return pts, nil
}

// errReader replays the body's read error after its bytes; a nil err
// is a clean end of body.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) {
	if r.err == nil {
		return 0, io.EOF
	}
	return 0, r.err
}

// parseFixes is the single-pass decoder for the canonical body
//
//	{"fixes":[{"lat":N,"lon":N,"t":"…"},…]}
//
// with any whitespace, the three keys in any order and each at most
// once (a missing one stays zero), numbers checked against the RFC 8259
// grammar and then converted by strconv.ParseFloat, and t decoded by
// (*time.Time).UnmarshalJSON on the raw quoted literal — the same
// conversions encoding/json applies, so an accepted body decodes to the
// same bits. It reports false for anything else (other keys or key
// spellings, escapes, null, a value cut short, invalid input) and
// leaves that body to encoding/json. Bytes after the value are ignored,
// as json.Decoder ignores them. The returned slice keeps any capacity
// grown while parsing, accepted or not.
func parseFixes(pts []trace.Point, b []byte) ([]trace.Point, bool) {
	p := fixParser{b: b}
	if !p.lit("{") || !p.lit(`"fixes"`) || !p.lit(":") || !p.lit("[") {
		return pts, false
	}
	if !p.lit("]") {
		for {
			pts = append(pts, trace.Point{})
			if !p.fix(&pts[len(pts)-1]) {
				return pts, false
			}
			if p.lit("]") {
				break
			}
			if !p.lit(",") {
				return pts, false
			}
		}
	}
	return pts, p.lit("}")
}

// fixParser is parseFixes' cursor over the body.
type fixParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *fixParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit skips whitespace and consumes s if the input continues with it.
func (p *fixParser) lit(s string) bool {
	p.ws()
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// fix parses one {"lat":N,"lon":N,"t":"…"} object into pt, which must
// be zero on entry.
func (p *fixParser) fix(pt *trace.Point) bool {
	if !p.lit("{") {
		return false
	}
	if p.lit("}") {
		return true
	}
	var seen [3]bool
	for {
		var ok bool
		switch {
		case p.lit(`"lat"`):
			ok = !seen[0] && p.lit(":") && p.number(&pt.Pos.Lat)
			seen[0] = true
		case p.lit(`"lon"`):
			ok = !seen[1] && p.lit(":") && p.number(&pt.Pos.Lon)
			seen[1] = true
		case p.lit(`"t"`):
			ok = !seen[2] && p.lit(":") && p.time(&pt.T)
			seen[2] = true
		}
		if !ok {
			return false
		}
		if p.lit("}") {
			return true
		}
		if !p.lit(",") {
			return false
		}
	}
}

// number parses an RFC 8259 number into v.
func (p *fixParser) number(v *float64) bool {
	p.ws()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		return false
	}
	*v, p.i = f, i
	return true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// time parses a JSON string without escapes or control bytes into t
// through (*time.Time).UnmarshalJSON, the method encoding/json calls.
func (p *fixParser) time(t *time.Time) bool {
	p.ws()
	b, i := p.b, p.i
	if i >= len(b) || b[i] != '"' {
		return false
	}
	for i++; i < len(b) && b[i] != '"'; i++ {
		if b[i] < 0x20 || b[i] == '\\' {
			return false
		}
	}
	if i == len(b) || t.UnmarshalJSON(b[p.i:i+1]) != nil {
		return false
	}
	p.i = i + 1
	return true
}
