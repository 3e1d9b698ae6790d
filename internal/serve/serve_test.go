package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsnloc/internal/alg"
	"wsnloc/internal/exec"
	"wsnloc/internal/obs"
	"wsnloc/internal/sweep"
)

// testServer builds a Server plus an httptest front end; both are torn down
// with the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var testSpecJSON = []byte(`{"scenario":{"N":40,"Field":60,"AnchorFrac":0.25,"Seed":3},"algorithm":"centroid","seed":7}`)

// TestSolveByteIdenticalToRunSpec pins the service contract: the bytes
// POST /v1/solve returns are exactly EncodeSolveResponse over a direct
// in-process run of the same spec.
func TestSolveByteIdenticalToRunSpec(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}})
	resp := postJSON(t, ts.URL+"/v1/solve", testSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Wsnloc-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	got := readBody(t, resp)

	sp, hash, err := decodeSolveBody(testSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	p, res, err := sp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeSolveResponse(hash, sp, p, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("service bytes differ from direct run:\ngot  %s\nwant %s", got, want)
	}
}

// TestSolveMemoHitByteIdentical pins the cross-request memo: resubmitting
// an identical spec — even formatted differently — returns the exact bytes
// of the first response, flagged as a cache hit.
func TestSolveMemoHitByteIdentical(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}})
	first := postJSON(t, ts.URL+"/v1/solve", testSpecJSON)
	firstBytes := readBody(t, first)

	// Same content, different JSON formatting and key order.
	reformatted := []byte(`{"seed":7,"algorithm":"centroid","scenario":{"Seed":3,"N":40,"AnchorFrac":0.25,"Field":60}}`)
	second := postJSON(t, ts.URL+"/v1/solve", reformatted)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", second.StatusCode)
	}
	if got := second.Header.Get("X-Wsnloc-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	if got := readBody(t, second); !bytes.Equal(got, firstBytes) {
		t.Fatalf("memo hit returned different bytes:\nfirst  %s\nsecond %s", firstBytes, got)
	}
}

var testSweepJSON = []byte(`{"scenarios":[{"N":30,"Field":50,"AnchorFrac":0.3,"Seed":1}],"algorithms":["centroid","dv-hop"],"seeds":[1,2],"trials":2}`)

// TestSweepMemoHitByteIdentical is the acceptance criterion: a repeated
// sweep spec answers from the memo with byte-identical cached bytes.
func TestSweepMemoHitByteIdentical(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}, CacheDir: t.TempDir()})
	first := postJSON(t, ts.URL+"/v1/sweep", testSweepJSON)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", first.StatusCode, readBody(t, first))
	}
	if got := first.Header.Get("X-Wsnloc-Cache"); got != "miss" {
		t.Errorf("first sweep cache header = %q, want miss", got)
	}
	firstBytes := readBody(t, first)

	var doc SweepResponse
	if err := json.Unmarshal(firstBytes, &doc); err != nil {
		t.Fatalf("sweep response is not valid JSON: %v", err)
	}
	if len(doc.Summary.Cells) != 4 {
		t.Errorf("summary cells = %d, want 4 (2 algorithms × 2 seeds)", len(doc.Summary.Cells))
	}

	second := postJSON(t, ts.URL+"/v1/sweep", testSweepJSON)
	if got := second.Header.Get("X-Wsnloc-Cache"); got != "hit" {
		t.Errorf("second sweep cache header = %q, want hit", got)
	}
	if got := readBody(t, second); !bytes.Equal(got, firstBytes) {
		t.Fatal("repeated sweep returned different bytes")
	}
}

// TestSweepMatchesDirectRun pins that the service's sweep summary equals a
// direct in-process sweep of the same document.
func TestSweepMatchesDirectRun(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}})
	resp := postJSON(t, ts.URL+"/v1/sweep", testSweepJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	got := readBody(t, resp)

	sw, err := sweep.ParseSpec(testSweepJSON)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(sw, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sweepHash(sw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeSweepResponse(hash, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("service sweep bytes differ from direct run:\ngot  %s\nwant %s", got, want)
	}
}

// TestQueueFull429 pins the backpressure contract: with every worker busy
// and the admission queue full, a new request is refused with 429 and a
// Retry-After header — not buffered, not hung.
func TestQueueFull429(t *testing.T) {
	s, ts := testServer(t, Config{Pool: exec.Config{Workers: 1, QueueDepth: 1}})

	// Saturate: one blocking job occupies the worker, one more fills the
	// FIFO queue.
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := func(ctx context.Context, tr obs.Tracer) error {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return nil
	}
	defer close(release)
	j1, err := s.Pool().Submit(context.Background(), "blocker", nil, blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now occupied
	j2, err := s.Pool().Submit(context.Background(), "queued", nil, blocker)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/solve", testSpecJSON)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("429 without Retry-After header")
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
		t.Errorf("429 body is not an error envelope: %s", body)
	}

	// Draining the saturation restores service.
	release <- struct{}{}
	release <- struct{}{}
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/v1/solve", testSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain: status = %d, want 200", resp.StatusCode)
	}
	readBody(t, resp)
}

// TestShutdownRefusesNewWork pins the drain semantics: after Shutdown
// begins, new requests get 503 while already-accepted jobs complete.
func TestShutdownRefusesNewWork(t *testing.T) {
	s, err := New(Config{Pool: exec.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	started := make(chan struct{}, 1)
	job, err := s.Pool().Submit(context.Background(), "inflight", nil, func(ctx context.Context, tr obs.Tracer) error {
		started <- struct{}{}
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.Closing() })

	resp := postJSON(t, ts.URL+"/v1/solve", testSpecJSON)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status during drain = %d, want 503", resp.StatusCode)
	}
	readBody(t, resp)

	close(release) // let the accepted job finish; Shutdown must return nil
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatalf("in-flight job: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAsyncJobFlow exercises ?async=1: 202 with a job id, then polling
// GET /v1/jobs/{id} until done, with the result document embedded.
func TestAsyncJobFlow(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}})
	resp := postJSON(t, ts.URL+"/v1/solve?async=1", testSpecJSON)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202; body %s", resp.StatusCode, body)
	}
	var acc struct {
		JobID     string `json:"job_id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(body, &acc); err != nil || acc.JobID == "" {
		t.Fatalf("202 body: %s", body)
	}

	var st JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + acc.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(readBody(t, r), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "error" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != "done" {
		t.Fatalf("job state = %q (%s), want done", st.State, st.Error)
	}
	var doc SolveResponse
	if err := json.Unmarshal(st.Result, &doc); err != nil {
		t.Fatalf("job result is not a solve response: %v", err)
	}
	if doc.Algorithm != "centroid" {
		t.Errorf("result algorithm = %q, want centroid", doc.Algorithm)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 1}, MaxBodyBytes: 512})
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed json", "/v1/solve", `{"algorithm":`, http.StatusBadRequest},
		{"unknown algorithm", "/v1/solve", `{"algorithm":"nope"}`, http.StatusBadRequest},
		{"absurd node count", "/v1/solve", fmt.Sprintf(`{"algorithm":"centroid","scenario":{"N":%d}}`, alg.MaxNodes+1), http.StatusBadRequest},
		{"oversized body", "/v1/solve", `{"pad":"` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge},
		{"sweep without algorithms", "/v1/sweep", `{"scenarios":[{"N":30}]}`, http.StatusBadRequest},
		{"get on solve", "/v1/solve", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.name == "get on solve" {
				resp, err = http.Get(ts.URL + tc.path)
			} else {
				resp, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			body := readBody(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, tc.want, body)
			}
			var env struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
				t.Errorf("error body is not an envelope: %s", body)
			}
		})
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 1}})
	resp, err := http.Get(ts.URL + "/v1/jobs/not-a-job")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	readBody(t, resp)
}

func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 1}})
	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.Unmarshal(readBody(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range doc.Algorithms {
		if a == "bncl-grid" {
			found = true
		}
	}
	if !found {
		t.Errorf("algorithms list %v missing bncl-grid", doc.Algorithms)
	}
}

// TestClientRoundTrip drives the typed client end to end: solve, cache-hit
// solve, sweep, and the busy sentinel.
func TestClientRoundTrip(t *testing.T) {
	s, ts := testServer(t, Config{Pool: exec.Config{Workers: 1, QueueDepth: 1}})
	c := NewClient(ts.URL)

	sp, err := alg.ParseSpec(testSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Solve(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first solve reported cached")
	}
	if first.Algorithm != "centroid" {
		t.Errorf("algorithm = %q", first.Algorithm)
	}
	second, err := c.Solve(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second solve not cached")
	}
	if !bytes.Equal(first.Raw, second.Raw) {
		t.Error("cached solve bytes differ")
	}

	sw, err := sweep.ParseSpec(testSweepJSON)
	if err != nil {
		t.Fatal(err)
	}
	swRes, err := c.Sweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(swRes.Summary.Cells) != 4 {
		t.Errorf("sweep cells = %d, want 4", len(swRes.Summary.Cells))
	}

	// Saturate the pool; the client must surface ErrBusy with a backoff.
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	blocker := func(ctx context.Context, tr obs.Tracer) error {
		started <- struct{}{}
		<-release
		return nil
	}
	j1, err := s.Pool().Submit(context.Background(), "b1", nil, blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := s.Pool().Submit(context.Background(), "b2", nil, blocker)
	if err != nil {
		t.Fatal(err)
	}
	fresh := sp
	fresh.Seed = 99 // distinct hash so the memo cannot answer
	_, err = c.Solve(context.Background(), fresh)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("saturated solve err = %v, want ErrBusy", err)
	}
	if RetryAfter(err) <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", RetryAfter(err))
	}
	close(release)
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSolveSpanChain pins the observability thread: one solve emits
// serve.request → exec.job → algorithm spans with intact parent links.
func TestSolveSpanChain(t *testing.T) {
	mem := obs.NewMemory()
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 1}, Tracer: mem})
	resp := postJSON(t, ts.URL+"/v1/solve", testSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	readBody(t, resp)

	var reqID, jobID, jobParent string
	for _, e := range mem.Events() {
		switch e.Name {
		case "serve.request.done":
			reqID, _ = e.Fields["span_id"].(string)
		case "exec.job.done":
			jobID, _ = e.Fields["span_id"].(string)
			jobParent, _ = e.Fields["parent_id"].(string)
		}
	}
	if reqID == "" || jobID == "" {
		t.Fatalf("missing spans: request %q, job %q", reqID, jobID)
	}
	if jobParent != reqID {
		t.Errorf("exec.job parent = %q, want serve.request %q", jobParent, reqID)
	}
	// The algorithm's own event must be parented somewhere under the job.
	foundChild := false
	for _, e := range mem.Events() {
		if e.Fields["parent_id"] == jobID {
			foundChild = true
			break
		}
	}
	if !foundChild {
		t.Error("no event parented under the exec.job span")
	}
}

// TestServeMetrics pins the instrument wiring: requests, memo hits, and
// rejections land in the registry alongside the pool gauges.
func TestServeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 1}, Registry: reg})
	readBody(t, postJSON(t, ts.URL+"/v1/solve", testSpecJSON))
	readBody(t, postJSON(t, ts.URL+"/v1/solve", testSpecJSON))

	if got := reg.Counter("wsnloc_serve_requests_total").Value(); got != 2 {
		t.Errorf("requests_total = %v, want 2", got)
	}
	if got := reg.Counter("wsnloc_serve_memo_hits_total").Value(); got != 1 {
		t.Errorf("memo_hits_total = %v, want 1", got)
	}
	if got := reg.Counter("wsnloc_exec_jobs_total").Value(); got != 1 {
		t.Errorf("exec_jobs_total = %v, want 1 (memo hit must not submit)", got)
	}
}

// TestAsyncSweepViaClient drives the async sweep branch through the typed
// client: 202 with a job id, polled to completion with Client.Job, and a
// resubmitted async sweep answered from the memo as an already-done job.
func TestAsyncSweepViaClient(t *testing.T) {
	_, ts := testServer(t, Config{CacheDir: t.TempDir()})
	client := NewClient(ts.URL)
	ctx := context.Background()

	resp := postJSON(t, ts.URL+"/v1/sweep?async=1", testSweepJSON)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async sweep status = %d, body %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.JobID == "" {
		t.Fatalf("bad accepted document %s: %v", body, err)
	}

	var st *JobStatus
	waitFor(t, func() bool {
		var err error
		st, err = client.Job(ctx, accepted.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "error" {
			t.Fatalf("async sweep failed: %s", st.Error)
		}
		return st.State == "done"
	})
	if st.Cached {
		t.Error("first async sweep reported cached")
	}
	if len(st.Result) == 0 {
		t.Fatal("done job has no result document")
	}

	// Resubmitted: the memo answers, so the job is done on arrival.
	resp2 := postJSON(t, ts.URL+"/v1/sweep?async=1", testSweepJSON)
	body2 := readBody(t, resp2)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("async resubmit status = %d", resp2.StatusCode)
	}
	var accepted2 struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body2, &accepted2); err != nil {
		t.Fatal(err)
	}
	st2, err := client.Job(ctx, accepted2.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != "done" || !st2.Cached {
		t.Errorf("memo-backed async job: state %q cached %v, want done/true", st2.State, st2.Cached)
	}
	if string(st2.Result) != string(st.Result) {
		t.Error("memo-backed async result bytes differ")
	}

	if _, err := client.Job(ctx, "no-such-job"); err == nil {
		t.Error("unknown job id did not error through the client")
	}
}

// TestAsyncQueuedJobExpiredReportsError is the REVIEW regression: an
// async job whose context expires while it is still queued is skipped by
// the pool without running the serve-layer fn, and the status entry must
// still reach a terminal "error" state instead of reporting "queued"
// forever to a polling client.
func TestAsyncQueuedJobExpiredReportsError(t *testing.T) {
	s, ts := testServer(t, Config{
		Pool:           exec.Config{Workers: 1, QueueDepth: 4},
		RequestTimeout: time.Nanosecond,
	})
	// Occupy the only worker so the async job sits in the queue past its
	// (instant) deadline.
	release := make(chan struct{})
	started := make(chan struct{})
	defer close(release)
	if _, err := s.Pool().Submit(context.Background(), "blocker", nil, func(ctx context.Context, tr obs.Tracer) error {
		close(started)
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	resp := postJSON(t, ts.URL+"/v1/solve?async=1", testSpecJSON)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var acc struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{} // free the worker; it dequeues and skips the dead job

	var st JobStatus
	waitFor(t, func() bool {
		r, err := http.Get(ts.URL + acc.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(readBody(t, r), &st); err != nil {
			t.Fatal(err)
		}
		return st.State != "queued" && st.State != "running"
	})
	if st.State != "error" {
		t.Fatalf("expired queued job state = %q, want error", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("error = %q, want the context deadline in it", st.Error)
	}
}

// TestRejectedSubmissionLeavesNoJob pins the REVIEW cleanup: a 429 must
// not leave a phantom "queued" entry in the job table.
func TestRejectedSubmissionLeavesNoJob(t *testing.T) {
	s, ts := testServer(t, Config{Pool: exec.Config{Workers: 1, QueueDepth: 1}})
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	blocker := func(ctx context.Context, tr obs.Tracer) error {
		started <- struct{}{}
		<-release
		return nil
	}
	defer close(release)
	j1, err := s.Pool().Submit(context.Background(), "b1", nil, blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := s.Pool().Submit(context.Background(), "b2", nil, blocker)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/solve?async=1", testSpecJSON)
	readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	s.jobsMu.Lock()
	n := len(s.jobs)
	s.jobsMu.Unlock()
	if n != 0 {
		t.Fatalf("job table holds %d entries after a reject, want 0", n)
	}

	release <- struct{}{}
	release <- struct{}{}
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSolveMemoBounded pins the LRU bound: with MemoEntries=1, a second
// distinct spec evicts the first, whose resubmission is a miss again.
func TestSolveMemoBounded(t *testing.T) {
	s, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}, MemoEntries: 1})
	specB := bytes.Replace(testSpecJSON, []byte(`"seed":7`), []byte(`"seed":8`), 1)

	for i, tc := range []struct {
		body []byte
		want string
	}{
		{testSpecJSON, "miss"},
		{testSpecJSON, "hit"},
		{specB, "miss"}, // evicts the first spec
		{testSpecJSON, "miss"},
	} {
		resp := postJSON(t, ts.URL+"/v1/solve", tc.body)
		readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Wsnloc-Cache"); got != tc.want {
			t.Errorf("request %d: cache header = %q, want %q", i, got, tc.want)
		}
	}
	if got := s.solveMemo.mem.Len(); got != 1 {
		t.Errorf("memo entries = %d, want 1", got)
	}
	// No header carries a synchronous job's id, so none may hold its bytes.
	s.jobsMu.Lock()
	n := len(s.jobs)
	s.jobsMu.Unlock()
	if n != 0 {
		t.Errorf("job table holds %d entries after synchronous requests, want 0", n)
	}
}

// TestFinishedJobsEvicted pins job-table retention: a finished entry older
// than JobRetention is expired by the next admission, answering 404.
func TestFinishedJobsEvicted(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}, JobRetention: time.Millisecond})
	resp := postJSON(t, ts.URL+"/v1/solve?async=1", testSpecJSON)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var acc struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		r, err := http.Get(ts.URL + acc.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.Unmarshal(readBody(t, r), &st); err != nil {
			t.Fatal(err)
		}
		return st.State == "done"
	})

	time.Sleep(20 * time.Millisecond) // outlive the retention window
	// Any new admission sweeps expired entries (memo hit included).
	readBody(t, postJSON(t, ts.URL+"/v1/solve?async=1", testSpecJSON))
	r, err := http.Get(ts.URL + acc.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, r)
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("expired job status = %d, want 404", r.StatusCode)
	}
}

// TestSolveDeadline504 pins the timeout rung of the error ladder: a
// request timeout that expires before the job runs surfaces as 504.
func TestSolveDeadline504(t *testing.T) {
	_, ts := testServer(t, Config{RequestTimeout: time.Nanosecond})
	spec := []byte(`{"scenario":{"N":40,"Field":60,"AnchorFrac":0.25,"Seed":3},"algorithm":"centroid","seed":504}`)
	resp := postJSON(t, ts.URL+"/v1/solve", spec)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s, want 504", resp.StatusCode, body)
	}
}

// TestMethodNotAllowed sweeps the remaining non-POST/non-GET rungs.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, url := range []string{ts.URL + "/v1/sweep", ts.URL + "/v1/algorithms"} {
		var resp *http.Response
		var err error
		if strings.HasSuffix(url, "/sweep") {
			resp, err = http.Get(url)
		} else {
			resp, err = http.Post(url, "application/json", nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s: status = %d, want 405", url, resp.StatusCode)
		}
	}
}

// TestBusyErrorSurface pins the client-side busy sentinel: message,
// unwrap target, and default retry hint.
func TestBusyErrorSurface(t *testing.T) {
	be := &busyError{retryAfter: 2 * time.Second}
	if be.Error() == "" || !errors.Is(be, ErrBusy) {
		t.Errorf("busyError: %q, Is(ErrBusy)=%v", be.Error(), errors.Is(be, ErrBusy))
	}
	if got := RetryAfter(be); got != 2*time.Second {
		t.Errorf("RetryAfter = %v, want 2s", got)
	}
	if got := RetryAfter(errors.New("other")); got != 0 {
		t.Errorf("RetryAfter(non-busy) = %v, want 0", got)
	}
}

// TestSweepShardedThenMerge drives the distributed sweep through the HTTP
// API: two shard requests over the server's cache directory, then ?merge=1,
// whose summary must equal a direct in-process run of the same document.
// The shard responses echo their split and never hit the response memo.
func TestSweepShardedThenMerge(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}, CacheDir: t.TempDir()})

	totalCells := 0
	for idx := 0; idx < 2; idx++ {
		resp := postJSON(t, fmt.Sprintf("%s/v1/sweep?shards=2&shard=%d", ts.URL, idx), testSweepJSON)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: status = %d, body %s", idx, resp.StatusCode, readBody(t, resp))
		}
		if got := resp.Header.Get("X-Wsnloc-Cache"); got != "miss" {
			t.Errorf("shard %d went through the memo: cache header %q", idx, got)
		}
		var doc SweepResponse
		if err := json.Unmarshal(readBody(t, resp), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Shards != 2 || doc.Shard == nil || *doc.Shard != idx {
			t.Errorf("shard %d response echoes shards=%d shard=%v", idx, doc.Shards, doc.Shard)
		}
		totalCells += len(doc.Summary.Cells)
	}
	if totalCells != 4 {
		t.Errorf("shards covered %d cells, want 4", totalCells)
	}

	resp := postJSON(t, ts.URL+"/v1/sweep?merge=1", testSweepJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge: status = %d, body %s", resp.StatusCode, readBody(t, resp))
	}
	var merged SweepResponse
	if err := json.Unmarshal(readBody(t, resp), &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Shards != 0 || merged.Shard != nil {
		t.Errorf("merged response carries shard fields: shards=%d shard=%v", merged.Shards, merged.Shard)
	}

	sw, err := sweep.ParseSpec(testSweepJSON)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sweep.Run(sw, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct.Summary())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(merged.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged summary differs from direct run:\ngot  %s\nwant %s", got, want)
	}
}

// TestSweepMergeIncompleteConflicts: merging before every shard has run
// answers 409, the retry-once-the-state-changes status.
func TestSweepMergeIncompleteConflicts(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}, CacheDir: t.TempDir()})
	resp := postJSON(t, ts.URL+"/v1/sweep?shards=3&shard=0", testSweepJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard 0: status = %d, body %s", resp.StatusCode, readBody(t, resp))
	}
	var doc SweepResponse
	if err := json.Unmarshal(readBody(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Summary.Cells) == 4 {
		t.Skip("shard 0 owns the whole grid under this hash split")
	}
	resp = postJSON(t, ts.URL+"/v1/sweep?merge=1", testSweepJSON)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusConflict || !bytes.Contains(body, []byte("unresolved")) {
		t.Errorf("incomplete merge: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestSweepShardQueryValidation pins the 400 surface of the distributed
// parameters.
func TestSweepShardQueryValidation(t *testing.T) {
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 1}, CacheDir: t.TempDir()})
	_, noCache := testServer(t, Config{Pool: exec.Config{Workers: 1}})
	for _, tc := range []struct {
		url  string
		want string
	}{
		{ts.URL + "/v1/sweep?shards=0&shard=0", "positive integer"},
		{ts.URL + "/v1/sweep?shards=nope", "positive integer"},
		{ts.URL + "/v1/sweep?shards=2&shard=2", "shard must be in [0, 2)"},
		{ts.URL + "/v1/sweep?shard=1", "shard requires shards"},
		{ts.URL + "/v1/sweep?merge=1&shards=2", "mutually exclusive"},
		{ts.URL + "/v1/sweep?merge=maybe", "merge must be 1"},
		{noCache.URL + "/v1/sweep?shards=2&shard=0", "cache directory"},
		{noCache.URL + "/v1/sweep?merge=1", "cache directory"},
	} {
		resp := postJSON(t, tc.url, testSweepJSON)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(tc.want)) {
			t.Errorf("%s: status = %d, body %s (want 400 mentioning %q)", tc.url, resp.StatusCode, body, tc.want)
		}
	}
}

// TestSweepShardHeldConflicts: a sharded request against a shard whose lease
// a live worker holds answers 409.
func TestSweepShardHeldConflicts(t *testing.T) {
	cacheDir := t.TempDir()
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 1}, CacheDir: cacheDir})
	lease, _, err := sweep.AcquireShardLease(cacheDir, 1, "other-host", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	resp := postJSON(t, ts.URL+"/v1/sweep?shards=2&shard=1", testSweepJSON)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusConflict || !bytes.Contains(body, []byte("lease")) {
		t.Errorf("held shard: status = %d, body %s", resp.StatusCode, body)
	}
}
