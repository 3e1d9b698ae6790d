package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"wsnloc/internal/exec"
	"wsnloc/internal/obs"
)

// postConditional posts body with an If-None-Match header.
func postConditional(t *testing.T, url string, body []byte, etag string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSolveETag304 pins the conditional-request contract on /v1/solve: the
// response carries a strong ETag equal to the quoted content hash, and
// replaying the spec with If-None-Match yields 304 with an empty body —
// without a cache lookup or execution.
func TestSolveETag304(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}, Registry: reg})

	resp := postJSON(t, ts.URL+"/v1/solve", testSpecJSON)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || etag[0] != '"' || etag[len(etag)-1] != '"' {
		t.Fatalf("ETag = %q, want a quoted strong validator", etag)
	}
	var doc struct {
		Hash string `json:"spec_hash"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if want := etagOf(doc.Hash); etag != want {
		t.Errorf("ETag = %q, want %q (the content hash)", etag, want)
	}

	jobs0 := s.Pool().CompletedJobs()
	resp304 := postConditional(t, ts.URL+"/v1/solve", testSpecJSON, etag)
	b := readBody(t, resp304)
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional replay: %d %s, want 304", resp304.StatusCode, b)
	}
	if len(b) != 0 {
		t.Errorf("304 body = %q, want empty", b)
	}
	if got := resp304.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}
	if got := s.Pool().CompletedJobs() - jobs0; got != 0 {
		t.Errorf("304 ran %d jobs, want 0", got)
	}
	if got := reg.Counter("wsnloc_serve_not_modified_total").Value(); got != 1 {
		t.Errorf("not-modified counter = %v, want 1", got)
	}

	// A stale validator misses the fast path and gets the full bytes back.
	respFull := postConditional(t, ts.URL+"/v1/solve", testSpecJSON, `"somethingelse"`)
	full := readBody(t, respFull)
	if respFull.StatusCode != http.StatusOK || !bytes.Equal(full, body) {
		t.Errorf("stale validator: %d, byte-identical=%v", respFull.StatusCode, bytes.Equal(full, body))
	}

	// The wildcard matches any representation.
	respStar := postConditional(t, ts.URL+"/v1/solve", testSpecJSON, "*")
	readBody(t, respStar)
	if respStar.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match: * → %d, want 304", respStar.StatusCode)
	}
}

func TestSweepETag304(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}})

	resp := postJSON(t, ts.URL+"/v1/sweep", testSweepJSON)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("sweep response missing ETag")
	}
	resp304 := postConditional(t, ts.URL+"/v1/sweep", testSweepJSON, etag)
	b := readBody(t, resp304)
	if resp304.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("sweep conditional replay: %d body=%q, want 304 empty", resp304.StatusCode, b)
	}
}

// TestGzipNegotiation pins the encoding tiers: gzip when negotiated and the
// body clears the floor, identity otherwise — and the gzip stream decodes to
// exactly the identity bytes.
func TestGzipNegotiation(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}})

	// Identity baseline. (Go's default client auto-negotiates gzip and
	// transparently decodes; send an explicit identity request instead.)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(testSpecJSON))
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	identity := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identity solve: %d %s", resp.StatusCode, identity)
	}
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity request got Content-Encoding %q", enc)
	}
	if len(identity) < gzipMinBytes {
		t.Fatalf("test body too small (%dB) to exercise gzip; grow testSpecJSON", len(identity))
	}

	// Explicit gzip negotiation, transparent decoding disabled.
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(testSpecJSON))
	req2.Header.Set("Accept-Encoding", "gzip")
	resp2, err := (&http.Client{Transport: tr}).Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	zbody := readBody(t, resp2)
	if enc := resp2.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(bytes.NewReader(zbody))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, identity) {
		t.Error("gzip stream does not decode to the identity bytes")
	}

	// Determinism: the same hash yields the same gzip stream, byte for byte
	// (this is a memo hit — encoded fresh from the same identity bytes).
	req3, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(testSpecJSON))
	req3.Header.Set("Accept-Encoding", "gzip")
	resp3, err := (&http.Client{Transport: tr}).Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	zbody2 := readBody(t, resp3)
	if !bytes.Equal(zbody2, zbody) {
		t.Error("gzip bytes differ across identical requests")
	}

	// q=0 opts out.
	req4, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(testSpecJSON))
	req4.Header.Set("Accept-Encoding", "gzip;q=0")
	resp4, err := (&http.Client{Transport: tr}).Do(req4)
	if err != nil {
		t.Fatal(err)
	}
	plain := readBody(t, resp4)
	if enc := resp4.Header.Get("Content-Encoding"); enc != "" {
		t.Errorf("q=0 opt-out got Content-Encoding %q", enc)
	}
	if !bytes.Equal(plain, identity) {
		t.Error("q=0 response not byte-identical to identity baseline")
	}
}

func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"gzip, deflate, br", true},
		{"deflate, gzip;q=1.0", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0", false},
		{"gzip;q=0.000", false},
		{"gzip; Q=0", false},
		{"gzip;q=0.5", true},
		{"identity", false},
		{"br;q=1.0, gzip;q=0.8", true},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if c.header != "" {
			r.Header.Set("Accept-Encoding", c.header)
		}
		if got := acceptsGzip(r); got != c.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

func TestIfNoneMatchHas(t *testing.T) {
	cases := []struct {
		header string
		etag   string
		want   bool
	}{
		{"", `"abc"`, false},
		{`"abc"`, `"abc"`, true},
		{`"xyz"`, `"abc"`, false},
		{`"xyz", "abc"`, `"abc"`, true},
		{`W/"abc"`, `"abc"`, true},
		{"*", `"abc"`, true},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/", nil)
		if c.header != "" {
			r.Header.Set("If-None-Match", c.header)
		}
		if got := ifNoneMatchHas(r, c.etag); got != c.want {
			t.Errorf("ifNoneMatchHas(%q, %s) = %v, want %v", c.header, c.etag, got, c.want)
		}
	}
}

// TestAlgorithmsPrecomputedETag pins satellite (a): the algorithms document
// is one construction-time byte slice served with its own validator.
func TestAlgorithmsPrecomputedETag(t *testing.T) {
	s, ts := testServer(t, Config{Pool: exec.Config{Workers: 1}})

	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("algorithms: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, s.algBytes) {
		t.Error("served bytes differ from the precomputed document")
	}
	etag := resp.Header.Get("ETag")
	if etag != s.algETag || etag == "" {
		t.Fatalf("ETag = %q, want precomputed %q", etag, s.algETag)
	}
	var doc struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Algorithms) == 0 {
		t.Fatalf("bad algorithms document %s: %v", body, err)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/algorithms", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b := readBody(t, resp2)
	if resp2.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Errorf("conditional algorithms: %d body=%q, want 304 empty", resp2.StatusCode, b)
	}
}

// TestWriteJSONEncodeError pins the torn-200 guard: an unencodable value
// becomes a clean 500, not a 200 with a half-written body.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]interface{}{"bad": func() {}})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("code = %d, want 500", rec.Code)
	}

	rec2 := httptest.NewRecorder()
	writeJSON(rec2, http.StatusCreated, map[string]string{"ok": "yes"})
	if rec2.Code != http.StatusCreated {
		t.Errorf("code = %d, want 201", rec2.Code)
	}
	if got := rec2.Header().Get("Content-Length"); got != strconv.Itoa(rec2.Body.Len()) {
		t.Errorf("Content-Length = %q, want %d", got, rec2.Body.Len())
	}
}

// TestHTTPServerDefaults pins the hardening knobs' zero/negative semantics.
func TestHTTPServerDefaults(t *testing.T) {
	srv := Config{}.HTTPServer(nil)
	if srv.ReadHeaderTimeout != DefaultReadHeaderTimeout ||
		srv.ReadTimeout != DefaultReadTimeout ||
		srv.IdleTimeout != DefaultIdleTimeout ||
		srv.MaxHeaderBytes != DefaultMaxHeaderBytes {
		t.Errorf("zero config: got %v/%v/%v/%d", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}

	srv = Config{ReadHeaderTimeout: -1, ReadTimeout: -1, IdleTimeout: -1, MaxHeaderBytes: -1}.HTTPServer(nil)
	if srv.ReadHeaderTimeout != 0 || srv.ReadTimeout != 0 || srv.IdleTimeout != 0 || srv.MaxHeaderBytes != 0 {
		t.Error("negative config should disable (zero) every knob")
	}

	srv = Config{ReadHeaderTimeout: 3 * time.Second, MaxHeaderBytes: 4096}.HTTPServer(nil)
	if srv.ReadHeaderTimeout != 3*time.Second || srv.MaxHeaderBytes != 4096 {
		t.Error("explicit values should pass through")
	}
}

// TestStalledHeaderConnectionReaped is the slowloris regression test: a
// client that opens a connection and never finishes its request header is
// cut off by ReadHeaderTimeout instead of holding its goroutine forever.
func TestStalledHeaderConnectionReaped(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 1}})
	cfg := Config{ReadHeaderTimeout: 150 * time.Millisecond}
	srv := cfg.HTTPServer(ts.Config.Handler)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A partial request line, then silence — the classic slowloris hold.
	if _, err := conn.Write([]byte("POST /v1/solve HT")); err != nil {
		t.Fatal(err)
	}
	// The server must terminate the hold: Go answers a 4xx (408 or 400 for
	// the torn request line) and closes. Reading to EOF within the deadline
	// is the proof; a read timeout here means the connection was never
	// reaped and the goroutine is pinned.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, rerr := io.ReadAll(conn)
	if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection still open after ReadHeaderTimeout — slowloris hold not reaped")
	}
	if len(got) > 0 && !bytes.HasPrefix(got, []byte("HTTP/1.1 4")) {
		t.Errorf("unexpected server bytes before close: %q", got)
	}
}
