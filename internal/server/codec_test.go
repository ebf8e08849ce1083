package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bcp"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// oracleDecode is what decodeStrict must answer: encoding/json with
// unknown fields disallowed, and then encoding/json's syntax error for
// anything but whitespace after the value.
func oracleDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		var raw json.RawMessage
		return json.Unmarshal(data, &raw)
	}
	return nil
}

// oracleEncode is what writeJSON must write: json.Encoder with HTML
// escaping off.
func oracleEncode(v any) []byte {
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	return out.Bytes()
}

// sameDecode decodes body into fresh values of T with decodeStrict and
// with the oracle, and fails unless both accept with equal values or
// both reject with the same text.
func sameDecode[T any](t *testing.T, body []byte) {
	t.Helper()
	var got, want T
	gotErr, wantErr := decodeStrict(body, &got), oracleDecode(body, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%T from %q: error %v, encoding/json %v", got, body, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q:\n got %#v\nwant %#v", got, body, got, want)
	}
}

// fuzzResponses derives answer and submit values from fuzz inputs: the
// strings are the body's comma-separated fields (so they carry HTML
// characters, escapes and invalid UTF-8 when the body does), and the
// flags switch optional parts on.
func fuzzResponses(body []byte, n int64, x float64, flags uint8) (*FillResponse, *BatchResponse, jobSubmit) {
	strs := strings.Split(string(body), ",")
	ints := make([]int, len(body)%7)
	for i := range ints {
		ints[i] = int(n>>i) - i
	}
	fr := &FillResponse{
		Name: strs[0], Rows: int(n), Width: len(body), XPercent: x,
		Orderer: strs[len(strs)-1], Filler: "DP-fill",
		Perm: ints, Peak: int(n % 1000), Total: int(n / 3), Profile: ints,
		DurationMillis: x / 1e9, Cached: flags&1 != 0,
	}
	if flags&2 != 0 {
		fr.Cubes = strs
	}
	if flags&4 != 0 {
		fr.Explain = &core.Trace{Rows: int(n), Cols: len(strs), Peak: 3, BCP: bcp.Stats{Probes: 2, AssignNS: n}}
	}
	br := &BatchResponse{Failed: int(n & 3)}
	if flags&8 == 0 {
		br.Results = []BatchItem{{Result: fr}, {Error: strs[0]}, {}}
	}
	if flags&16 != 0 {
		br.Shards = []ShardTrace{{Lo: 0, Hi: 2, Worker: strs[0], Attempts: 2, Hedged: true, DispatchNS: n, WorkerNS: n / 2},
			{Lo: 2, Hi: 3, FellBack: flags&32 != 0}}
	}
	sub := jobSubmit{Debug: flags&64 != 0, Jobs: []FillRequest{
		{Name: strs[0], Cubes: strs, Orderer: "i", Filler: "dp", Window: int(n % 9), Seed: n,
			Priority: int(n % 5), TimeoutMillis: n / 7, OmitCubes: flags&1 != 0, Debug: flags&2 != 0},
		{STIL: strs[len(strs)-1]},
	}}
	if flags&128 != 0 {
		sub = jobSubmit{Pipeline: &pipeline.Request{Spec: strs[0]}}
	}
	return fr, br, sub
}

// FuzzCodec holds the fast codec to encoding/json. On arbitrary bytes,
// decoding a FillRequest, a BatchRequest and a job submit must agree
// with the oracle on acceptance, error text and value. On answer and
// submit values built from the same inputs, writeJSON must write
// exactly what json.Encoder writes with HTML escaping off, and
// marshalJSON exactly what json.Marshal returns. Seeds live in
// testdata/fuzz/FuzzCodec.
func FuzzCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, n int64, x float64, flags uint8) {
		sameDecode[FillRequest](t, body)
		sameDecode[BatchRequest](t, body)
		sameDecode[jobSubmit](t, body)

		fr, br, sub := fuzzResponses(body, n, x, flags)
		for _, v := range []any{fr, br} {
			rec := httptest.NewRecorder()
			writeJSON(rec, 200, v)
			if want := oracleEncode(v); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("writeJSON(%T):\n got %s\nwant %s", v, rec.Body.Bytes(), want)
			}
		}
		for _, v := range []any{br, sub} {
			got, gotErr := marshalJSON(v)
			want, wantErr := json.Marshal(v)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
				t.Fatalf("marshalJSON(%T) = %s, %v\n json.Marshal %s, %v", v, got, gotErr, want, wantErr)
			}
		}
	})
}

// TestDecodeFastCoversPlainBodies pins which bodies take the fast path:
// the plain shapes real clients send, and nothing encoding/json would
// read differently or reject. Each body is also checked against the
// oracle.
func TestDecodeFastCoversPlainBodies(t *testing.T) {
	fast := []string{
		`{"cubes":["01X","1X0"]}`,
		` { "name" : "a" , "cubes" : [ "01X" , "1X0" ] , "orderer":"i","filler":"dp","window":4,"seed":-7,"priority":0,"timeout_ms":1500,"omit_cubes":true,"debug":false } ` + "\n",
		`{"cubes":[],"name":"<&>"}`,
		`{}`,
		`{"seed":-0}`,
		`{"seed":9223372036854775807}`,
	}
	slow := []string{
		`{"cubes":null}`,                       // null
		`{"name":"a\"b"}`,                      // escape
		`{"name":"é"}`,                         // non-ASCII
		`{"Cubes":["01"]}`,                     // case-variant key
		`{"cubes":["01"],"cubes":["10"]}`,      // repeated key
		`{"cubes":["01"],"bogus":1}`,           // unknown key
		`{"window":1.5}`,                       // float
		`{"window":1e2}`,                       // exponent
		`{"seed":01}`,                          // leading zero
		`{"seed":9223372036854775808}`,         // overflow
		`{"debug":True}`,                       // not a literal
		`{"cubes":["01X"]}garbage`,             // trailing bytes
		`{"cubes":["01X"]}{"cubes":["bad"]}`,   // a second value
		`{"cubes":["01X"],}`,                   // trailing comma
		`{"cubes":["01X"]`,                     // truncated
		`{"stil":"V0: V { all = 0N; }\n"}`,     // escape in STIL text
		"{\"name\":\"tab\there\"}",             // raw control byte
		`[]`,                                   // not an object
		``,                                     // empty
		`{"jobs":[{"cubes":["01"]}]}`,          // not a FillRequest key
		`{"cubes":["01"],"debug":true,"x":{}}`, // unknown key last
	}
	for _, body := range fast {
		if !decodeFast([]byte(body), new(FillRequest)) {
			t.Errorf("%q took the encoding/json path", body)
		}
		sameDecode[FillRequest](t, []byte(body))
	}
	for _, body := range slow {
		if decodeFast([]byte(body), new(FillRequest)) {
			t.Errorf("%q took the fast path", body)
		}
		sameDecode[FillRequest](t, []byte(body))
	}
	for _, body := range []string{`{"jobs":[{"cubes":["01"]},{"name":"b","cubes":["1X"]}],"debug":true}`, `{"jobs":[]}`} {
		if !decodeFast([]byte(body), new(BatchRequest)) || !decodeFast([]byte(body), new(jobSubmit)) {
			t.Errorf("%q took the encoding/json path", body)
		}
		sameDecode[BatchRequest](t, []byte(body))
		sameDecode[jobSubmit](t, []byte(body))
	}
	if body := `{"pipeline":{"spec":"b01"}}`; decodeFast([]byte(body), new(jobSubmit)) {
		t.Errorf("%q took the fast path", body)
	}
}

// TestDecodeFillRequestAllocs pins the fast decoder's allocations: a
// FillRequest of N cubes costs the same handful whatever N is, because
// every cube string is a slice of one copy of the body and the cube
// slice is sized by a counting pass.
func TestDecodeFillRequestAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		cubes := make([]string, n)
		for i := range cubes {
			cubes[i] = strings.Repeat("01X", 40)
		}
		body, err := json.Marshal(FillRequest{Name: "a", Cubes: cubes, Orderer: "tool", Filler: "dp"})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			var req FillRequest
			if err := decodeStrict(body, &req); err != nil || len(req.Cubes) != n {
				t.Fatalf("decode: %v", err)
			}
		})
	}
	small, large := allocs(4), allocs(2000)
	if small != large || large > 6 {
		t.Fatalf("decoding 4 cubes allocates %.1f times, 2000 cubes %.1f; want the same small constant", small, large)
	}
}

// TestEncodeFastCoversAnswers pins that the common answers take the
// fast encoder, and that one needing escapes does not.
func TestEncodeFastCoversAnswers(t *testing.T) {
	fr, br, sub := fuzzResponses([]byte("0101,1X10,<&>"), 12, 37.5, 2|4|16)
	for _, v := range []any{fr, br} {
		if _, ok := encodeFast(nil, v, false); !ok {
			t.Errorf("%T took the encoding/json path", v)
		}
	}
	if _, ok := encodeFast(nil, sub, true); ok {
		t.Error("a submit carrying <&> took the fast path with HTML escaping on")
	}
	if _, ok := encodeFast(nil, sub, false); !ok {
		t.Error("a submit carrying <&> took the encoding/json path with HTML escaping off")
	}
	if _, ok := encodeFast(nil, &GridResponse{}, false); ok {
		t.Error("a GridResponse took the fast path")
	}
}

// wideFill is a fill-wide-shaped request and answer: 200 vectors of
// 1000 trits.
func wideFill() ([]byte, *FillResponse) {
	cubes := make([]string, 200)
	for i := range cubes {
		cubes[i] = strings.Repeat("01XX1", 200)
	}
	body, _ := json.Marshal(FillRequest{Name: "wide", Cubes: cubes, Orderer: "tool", Filler: "dp"})
	perm := make([]int, len(cubes))
	for i := range perm {
		perm[i] = len(cubes) - 1 - i
	}
	return body, &FillResponse{Name: "wide", Rows: 200, Width: 1000, XPercent: 40, Orderer: "tool", Filler: "DP-fill",
		Perm: perm, Cubes: cubes, Peak: 12, Total: 900, Profile: perm[1:], DurationMillis: 4.2}
}

func BenchmarkDecodeFillRequest(b *testing.B) {
	body, _ := wideFill()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var req FillRequest
		if err := decodeStrict(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteFillResponse(b *testing.B) {
	_, resp := wideFill()
	b.ReportAllocs()
	for b.Loop() {
		writeJSON(discardWriter{httptest.NewRecorder()}, 200, resp)
	}
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct{ *httptest.ResponseRecorder }

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
