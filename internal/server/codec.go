package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// The codec for cube-carrying bodies. The fill, batch and job-submit
// requests and the fill and batch answers are large (a 1000-pin ×
// 200-vector fill is about 200 KB each way) and almost always made of
// the same few tokens: known keys, plain integers, booleans, and
// printable ASCII strings without escapes. The fast paths below take
// exactly those inputs and hand everything else to encoding/json, so
// encoding/json stays the definition of the wire format: whatever the
// fast path accepts decodes to the value encoding/json would produce,
// whatever it writes is byte for byte what encoding/json would write,
// and every error text is encoding/json's own. FuzzCodec holds the two
// to that.

// jsonPlain[c] reports whether byte c stands for itself inside a JSON
// string, both ways: printable ASCII except the quote and the
// backslash. jsonPlainHTML also excludes the characters encoding/json
// escapes when HTML escaping is on.
var jsonPlain, jsonPlainHTML = func() (plain, html [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		plain[c] = c != '"' && c != '\\'
		html[c] = plain[c] && c != '<' && c != '>' && c != '&'
	}
	return plain, html
}()

// plainPrefix returns the length of the longest prefix of s whose
// bytes are all jsonPlain, or jsonPlainHTML when html is set. It tests
// eight bytes at a time for the long cube strings: a word is plain when
// no byte is at or above 0x7f, none is below 0x20, and none is an
// excluded character.
func plainPrefix(s string, html bool) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		t := s[i : i+8]
		w := uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
			uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
		// (v-ones)&^v has a high bit set iff some byte of v is zero.
		q, b := w^('"'*ones), w^('\\'*ones)
		bad := w | (w + ones) | (w-0x20*ones)&^w | (q-ones)&^q | (b-ones)&^b
		if html {
			lt, gt, amp := w^('<'*ones), w^('>'*ones), w^('&'*ones)
			bad |= (lt-ones)&^lt | (gt-ones)&^gt | (amp-ones)&^amp
		}
		if bad&highs != 0 {
			break
		}
	}
	plain := &jsonPlain
	if html {
		plain = &jsonPlainHTML
	}
	for ; i < len(s) && plain[s[i]]; i++ {
	}
	return i
}

// readBody reads a request body into one buffer sized from its
// Content-Length, capped at limit; a body of unknown length starts
// small and grows. r is expected to enforce the limit itself (an
// http.MaxBytesReader), whose error readBody returns.
func readBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	size := int64(512)
	if contentLength >= 0 {
		size = min(contentLength, limit)
	}
	// One spare byte lets the read that reports io.EOF land without
	// growing a buffer that holds exactly Content-Length bytes.
	buf := make([]byte, 0, size+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeStrict decodes the JSON value in data into v, which must
// point to a zero value. Unknown fields are errors, and so is anything
// but JSON whitespace after the value. Otherwise the rules are
// encoding/json's: keys match struct tags case-insensitively, and when
// a key repeats its last value wins. A FillRequest, BatchRequest or
// jobSubmit whose body is plain (see fastDecoder) is decoded without
// reflection; any other body, including every malformed one, goes
// through encoding/json on the same bytes, so the errors and the
// values are encoding/json's.
func decodeStrict(data []byte, v any) error {
	if decodeFast(data, v) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		// encoding/json's own complaint about the bytes after the
		// first value: "invalid character 'x' after top-level value".
		return json.Unmarshal(data, &struct{}{})
	}
	return nil
}

// decodeFast decodes data into v when v is one of the cube-carrying
// request types and data is plain, reporting whether it did. It never
// writes to v unless it succeeds.
func decodeFast(data []byte, v any) bool {
	switch p := v.(type) {
	case *FillRequest:
		d := newFastDecoder(data)
		var req FillRequest
		if d.fillRequest(&req) && d.end() {
			*p = req
			return true
		}
	case *BatchRequest:
		d := newFastDecoder(data)
		if jobs, debug, ok := d.batch(); ok && d.end() {
			*p = BatchRequest{Jobs: jobs, Debug: debug}
			return true
		}
	case *jobSubmit:
		// A pipeline submit is a small body that takes the
		// encoding/json path: "pipeline" is not a key batch reads.
		d := newFastDecoder(data)
		if jobs, debug, ok := d.batch(); ok && d.end() {
			*p = jobSubmit{Jobs: jobs, Debug: debug}
			return true
		}
	}
	return false
}

// fastDecoder is a recursive-descent reader of plain JSON bodies:
// objects with the exact keys of the target struct, each at most once;
// arrays; strings of printable ASCII with no escapes; integers without
// fraction or exponent that fit their field; and booleans. Anything
// else (null, an escape, a float, an unknown or case-variant key, a
// repeated key) makes it give up, and the caller decodes with
// encoding/json instead. Decoded strings are slices of one string copy
// of the body, so a request of N cubes costs a constant number of
// allocations.
type fastDecoder struct {
	data []byte
	str  string // string(data)
	i    int
}

func newFastDecoder(data []byte) *fastDecoder {
	return &fastDecoder{data: data, str: string(data)}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *fastDecoder) peek() byte {
	for d.i < len(d.data) {
		switch c := d.data[d.i]; c {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next byte after whitespace.
func (d *fastDecoder) eat(c byte) bool {
	if d.peek() != c {
		return false
	}
	d.i++
	return true
}

// end reports whether only whitespace is left.
func (d *fastDecoder) end() bool { return d.peek() == 0 && d.i == len(d.data) }

// object reads an object whose values field reads after each key. field
// returns false for an unknown key or a value it cannot take; object
// itself rejects a repeated key.
func (d *fastDecoder) object(field func(key string) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	// A twelfth key is a repeat or unknown in every covered type.
	var seenKeys [12]string
	seen := seenKeys[:0]
	for {
		key, ok := d.string()
		if !ok || !d.eat(':') {
			return false
		}
		if len(seen) == len(seenKeys) || slices.Contains(seen, key) {
			return false
		}
		seen = append(seen, key)
		if !field(key) {
			return false
		}
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// fillRequest reads one FillRequest object.
func (d *fastDecoder) fillRequest(req *FillRequest) bool {
	return d.object(func(key string) bool {
		switch key {
		case "name":
			return d.stringField(&req.Name)
		case "cubes":
			return d.stringArray(&req.Cubes)
		case "stil":
			return d.stringField(&req.STIL)
		case "orderer":
			return d.stringField(&req.Orderer)
		case "filler":
			return d.stringField(&req.Filler)
		case "window":
			return d.intField(&req.Window)
		case "seed":
			return d.int64Field(&req.Seed)
		case "priority":
			return d.intField(&req.Priority)
		case "timeout_ms":
			return d.int64Field(&req.TimeoutMillis)
		case "omit_cubes":
			return d.boolean(&req.OmitCubes)
		case "debug":
			return d.boolean(&req.Debug)
		}
		return false
	})
}

// batch reads the {"jobs": [...], "debug": bool} object that
// BatchRequest and a batch jobSubmit share.
func (d *fastDecoder) batch() (jobs []FillRequest, debug bool, ok bool) {
	ok = d.object(func(key string) bool {
		switch key {
		case "jobs":
			return d.jobs(&jobs)
		case "debug":
			return d.boolean(&debug)
		}
		return false
	})
	return jobs, debug, ok
}

// jobs reads an array of FillRequest objects.
func (d *fastDecoder) jobs(dst *[]FillRequest) bool {
	if !d.eat('[') {
		return false
	}
	jobs := []FillRequest{}
	if !d.eat(']') {
		for {
			var req FillRequest
			if !d.fillRequest(&req) {
				return false
			}
			jobs = append(jobs, req)
			if d.eat(']') {
				break
			}
			if !d.eat(',') {
				return false
			}
		}
	}
	*dst = jobs
	return true
}

// string reads one plain string.
func (d *fastDecoder) string() (string, bool) {
	if d.peek() != '"' {
		return "", false
	}
	from := d.i + 1
	end := from + plainPrefix(d.str[from:], false)
	if end == len(d.data) || d.data[end] != '"' {
		return "", false
	}
	d.i = end + 1
	return d.str[from:end], true
}

func (d *fastDecoder) stringField(dst *string) bool {
	s, ok := d.string()
	*dst = s
	return ok
}

// stringArray reads an array of plain strings into a slice of exactly
// its length: a first pass validates and counts, a second slices.
func (d *fastDecoder) stringArray(dst *[]string) bool {
	if !d.eat('[') {
		return false
	}
	start, n := d.i, 0
	if !d.eat(']') {
		for {
			if _, ok := d.string(); !ok {
				return false
			}
			n++
			if d.eat(']') {
				break
			}
			if !d.eat(',') {
				return false
			}
		}
	}
	out := make([]string, n)
	d.i = start
	for k := range out {
		d.eat(',')
		d.peek()
		from := d.i + 1
		end := from + strings.IndexByte(d.str[from:], '"')
		out[k] = d.str[from:end]
		d.i = end + 1
	}
	d.eat(']')
	*dst = out
	return true
}

// integer reads an integer without fraction or exponent that fits in
// a signed integer of the given bit size.
func (d *fastDecoder) integer(bitSize int) (int64, bool) {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, false
	}
	start := d.i
	if d.data[d.i] == '-' {
		d.i++
	}
	digits := d.i
	for d.i < len(d.data) && d.data[d.i] >= '0' && d.data[d.i] <= '9' {
		d.i++
	}
	if d.i == digits || (d.data[digits] == '0' && d.i > digits+1) {
		return 0, false
	}
	n, err := strconv.ParseInt(d.str[start:d.i], 10, bitSize)
	return n, err == nil
}

func (d *fastDecoder) intField(dst *int) bool {
	n, ok := d.integer(strconv.IntSize)
	*dst = int(n)
	return ok
}

func (d *fastDecoder) int64Field(dst *int64) bool {
	n, ok := d.integer(64)
	*dst = n
	return ok
}

// boolean reads true or false.
func (d *fastDecoder) boolean(dst *bool) bool {
	d.peek()
	switch rest := d.str[d.i:]; {
	case strings.HasPrefix(rest, "true"):
		*dst = true
		d.i += 4
	case strings.HasPrefix(rest, "false"):
		*dst = false
		d.i += 5
	default:
		return false
	}
	return true
}

// encodeFast appends v to dst as encoding/json would encode it with
// the given HTML escaping, without the trailing newline of
// json.Encoder. It covers FillResponse and BatchResponse answers and
// batch job submits whose strings need no escaping (a fill's explain
// trace, when present, is handed to encoding/json on its own), and
// reports false for anything else, which the caller then encodes with
// encoding/json.
func encodeFast(dst []byte, v any, escapeHTML bool) ([]byte, bool) {
	e := fastEncoder{buf: dst, html: escapeHTML}
	ok := e.value(v)
	return e.buf, ok
}

// marshalJSON is json.Marshal through the fast encoder: the bytes are
// encoded into a pooled buffer and copied out at their exact size.
func marshalJSON(v any) ([]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	body, ok := encodeFast((*bp)[:0], v, true)
	*bp = body[:0]
	if !ok {
		return json.Marshal(v)
	}
	return append([]byte(nil), body...), nil
}

// fastEncoder appends plain values to buf, giving up (ok false) on a
// string that needs escaping or a float encoding/json rejects. Each
// struct is written field by field in declaration order; the opt
// methods skip the zero values that omitempty drops.
type fastEncoder struct {
	buf  []byte
	html bool
	ok   bool
}

// value writes one of the covered types, reporting whether it could.
func (e *fastEncoder) value(v any) bool {
	e.ok = true
	switch v := v.(type) {
	case *FillResponse:
		if v == nil {
			return false
		}
		e.fillResponse(v)
	case *BatchResponse:
		if v == nil {
			return false
		}
		e.batchResponse(v)
	case jobSubmit:
		if v.Pipeline != nil {
			return false
		}
		e.buf = append(e.buf, '{')
		if len(v.Jobs) > 0 {
			e.key("jobs")
			e.buf = append(e.buf, '[')
			for i := range v.Jobs {
				e.comma(i)
				e.fillRequest(&v.Jobs[i])
			}
			e.buf = append(e.buf, ']')
		}
		e.optTrue("debug", v.Debug)
		e.buf = append(e.buf, '}')
	default:
		return false
	}
	return e.ok
}

// key writes a member name, after a comma unless it opens its object.
func (e *fastEncoder) key(name string) {
	if e.buf[len(e.buf)-1] != '{' {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':')
}

// comma separates array element i from the one before it.
func (e *fastEncoder) comma(i int) {
	if i > 0 {
		e.buf = append(e.buf, ',')
	}
}

func (e *fastEncoder) string(s string) {
	if plainPrefix(s, e.html) != len(s) {
		e.ok = false
		return
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

func (e *fastEncoder) int(name string, n int64) {
	e.key(name)
	e.buf = strconv.AppendInt(e.buf, n, 10)
}

func (e *fastEncoder) optInt(name string, n int64) {
	if n != 0 {
		e.int(name, n)
	}
}

func (e *fastEncoder) optString(name, s string) {
	if s != "" {
		e.key(name)
		e.string(s)
	}
}

func (e *fastEncoder) optTrue(name string, b bool) {
	if b {
		e.key(name)
		e.buf = append(e.buf, "true"...)
	}
}

func (e *fastEncoder) optStrings(name string, ss []string) {
	if len(ss) == 0 {
		return
	}
	e.key(name)
	e.buf = append(e.buf, '[')
	for i, s := range ss {
		e.comma(i)
		e.string(s)
	}
	e.buf = append(e.buf, ']')
}

func (e *fastEncoder) optInts(name string, ns []int) {
	if len(ns) == 0 {
		return
	}
	e.key(name)
	e.buf = append(e.buf, '[')
	for i, n := range ns {
		e.comma(i)
		e.buf = strconv.AppendInt(e.buf, int64(n), 10)
	}
	e.buf = append(e.buf, ']')
}

// float writes f the way encoding/json writes a float64: the shortest
// representation, in exponent form outside [1e-6, 1e21), with a
// one-digit negative exponent unpadded. NaN and infinities, which
// encoding/json refuses, give up.
func (e *fastEncoder) float(name string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.ok = false
		return
	}
	e.key(name)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		n := len(e.buf)
		if n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

func (e *fastEncoder) fillRequest(r *FillRequest) {
	e.buf = append(e.buf, '{')
	e.optString("name", r.Name)
	e.optStrings("cubes", r.Cubes)
	e.optString("stil", r.STIL)
	e.optString("orderer", r.Orderer)
	e.optString("filler", r.Filler)
	e.optInt("window", int64(r.Window))
	e.optInt("seed", r.Seed)
	e.optInt("priority", int64(r.Priority))
	e.optInt("timeout_ms", r.TimeoutMillis)
	e.optTrue("omit_cubes", r.OmitCubes)
	e.optTrue("debug", r.Debug)
	e.buf = append(e.buf, '}')
}

func (e *fastEncoder) fillResponse(r *FillResponse) {
	e.buf = append(e.buf, '{')
	e.optString("name", r.Name)
	e.int("rows", int64(r.Rows))
	e.int("width", int64(r.Width))
	e.float("x_percent", r.XPercent)
	e.key("orderer")
	e.string(r.Orderer)
	e.key("filler")
	e.string(r.Filler)
	e.optInts("perm", r.Perm)
	e.optStrings("cubes", r.Cubes)
	e.int("peak", int64(r.Peak))
	e.int("total", int64(r.Total))
	e.optInts("profile", r.Profile)
	e.float("duration_ms", r.DurationMillis)
	e.key("cached")
	e.buf = strconv.AppendBool(e.buf, r.Cached)
	if r.Explain != nil {
		e.key("explain")
		e.explain(r.Explain)
	}
	e.buf = append(e.buf, '}')
}

// explain hands a fill's trace to encoding/json: it is small, and
// rarely requested.
func (e *fastEncoder) explain(tr *core.Trace) {
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(e.html)
	if err := enc.Encode(tr); err != nil {
		e.ok = false
		return
	}
	e.buf = append(e.buf, bytes.TrimSuffix(out.Bytes(), []byte("\n"))...)
}

func (e *fastEncoder) batchResponse(r *BatchResponse) {
	e.buf = append(e.buf, `{"results":`...)
	if r.Results == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i := range r.Results {
			e.comma(i)
			e.buf = append(e.buf, '{')
			if item := &r.Results[i]; item.Result != nil {
				e.key("result")
				e.fillResponse(item.Result)
			}
			e.optString("error", r.Results[i].Error)
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	e.int("failed", int64(r.Failed))
	if len(r.Shards) > 0 {
		e.key("shards")
		e.buf = append(e.buf, '[')
		for i := range r.Shards {
			e.comma(i)
			s := &r.Shards[i]
			e.buf = append(e.buf, '{')
			e.int("lo", int64(s.Lo))
			e.int("hi", int64(s.Hi))
			e.optString("worker", s.Worker)
			e.int("attempts", int64(s.Attempts))
			e.optTrue("hedged", s.Hedged)
			e.optTrue("fell_back", s.FellBack)
			e.int("dispatch_ns", s.DispatchNS)
			e.optInt("worker_ns", s.WorkerNS)
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, '}')
}

// bodyPool recycles encode buffers: writeJSON writes its buffer to the
// connection and marshalJSON copies out of it, so neither keeps it.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}
