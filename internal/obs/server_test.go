package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func opsTestServer(t *testing.T) (*httptest.Server, *Registry, *Broadcast) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("wsnloc_trials_total").Add(3)
	bc := NewBroadcast(16)
	ts := httptest.NewServer(NewOpsMux(reg, bc))
	t.Cleanup(ts.Close)
	return ts, reg, bc
}

func TestOpsEndpointsServe(t *testing.T) {
	ts, _, _ := opsTestServer(t)
	cases := []struct {
		path string
		want string
	}{
		{"/", "wsnloc ops plane"},
		{"/healthz", "ok"},
		{"/metrics", "wsnloc_trials_total 3"},
		{"/metrics.json", `"wsnloc_trials_total": 3`},
		{"/debug/pprof/", "goroutine"},
		{"/debug/pprof/cmdline", ""},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", tc.path, resp.StatusCode)
		}
		if tc.want != "" && !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s body missing %q:\n%s", tc.path, tc.want, body)
		}
	}
	resp, err := http.Get(ts.URL + "/no-such")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /no-such = %d, want 404", resp.StatusCode)
	}
}

func TestOpsBuildInfo(t *testing.T) {
	ts, _, _ := opsTestServer(t)
	resp, err := http.Get(ts.URL + "/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("buildinfo is not JSON: %v", err)
	}
	if v, _ := out["go_version"].(string); !strings.HasPrefix(v, "go") {
		t.Errorf("go_version = %q, want go*", v)
	}
}

func TestEventsStreamDeliversJSONL(t *testing.T) {
	ts, _, bc := opsTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", got)
	}

	// Wait for the subscription to register, then emit through it.
	waitFor(t, func() bool { return bc.Subscribers() == 1 })
	bc.Emit(Event{Time: time.Now(), Name: "hello", Fields: map[string]interface{}{"x": 1.0}})

	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	var obj map[string]interface{}
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("stream line is not JSON: %v\n%s", err, line)
	}
	if obj["event"] != "hello" || obj["x"] != 1.0 {
		t.Errorf("stream event = %v", obj)
	}
}

func TestEventsStreamSSE(t *testing.T) {
	ts, _, bc := opsTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events?sse=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", got)
	}
	waitFor(t, func() bool { return bc.Subscribers() == 1 })
	bc.Emit(Event{Time: time.Now(), Name: "hello"})
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "data: ") {
		t.Errorf("SSE frame = %q, want data: prefix", line)
	}
}

// TestEventsClientDisconnectUnsubscribes is the satellite regression: a
// client that goes away must terminate the handler and release its broadcast
// subscription, so abandoned streams cannot pile up.
func TestEventsClientDisconnectUnsubscribes(t *testing.T) {
	ts, _, bc := opsTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return bc.Subscribers() == 1 })

	cancel() // client disconnect
	resp.Body.Close()
	waitFor(t, func() bool { return bc.Subscribers() == 0 })

	// Emitting afterwards reaches no one and drops nothing.
	bc.Emit(Event{Name: "after"})
	if got := bc.Dropped(); got != 0 {
		t.Errorf("dropped = %d after disconnect, want 0", got)
	}
}

func TestEventsWithoutBroadcastIs503(t *testing.T) {
	ts := httptest.NewServer(NewOpsMux(NewRegistry(), nil))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /events without broadcast = %d, want 503", resp.StatusCode)
	}
}

func TestMetricsExposeBroadcastHealth(t *testing.T) {
	ts, _, bc := opsTestServer(t)
	bc.Emit(Event{Name: "e"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"wsnloc_events_subscribers 0",
		"wsnloc_events_emitted 1",
		"wsnloc_events_dropped 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestStartOpsServerServes pins the plane Start serves for -obs-http: its
// bound address is announced on Stderr, it answers, and it stops answering
// once Close returns.
func TestStartOpsServerServes(t *testing.T) {
	var stderr bytes.Buffer
	s, err := Start(Flags{HTTP: "127.0.0.1:0", Stderr: &stderr})
	if err != nil {
		t.Fatal(err)
	}
	if want := "obs: serving http://" + s.addr + "/ (metrics, events, pprof)\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
	resp, err := http.Get("http://" + s.addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get("http://" + s.addr + "/healthz"); err == nil {
		t.Error("server still serving after Close")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOpsServerShutdownDrainsEventStreams pins the graceful-shutdown
// contract of Close: every /events subscription closes (clients read a
// clean EOF, not a connection reset) and the server stops well inside its
// 2 s drain deadline.
func TestOpsServerShutdownDrainsEventStreams(t *testing.T) {
	s, err := Start(Flags{HTTP: "127.0.0.1:0", Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	bc := s.Broadcast
	resp, err := http.Get("http://" + s.addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, func() bool { return bc.Subscribers() == 1 })

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- s.Close() }()

	// The stream must end cleanly: EOF, not a reset mid-read.
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Errorf("stream did not end cleanly: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("Close: %v", err)
	}
	if d := time.Since(start); d >= 2*time.Second {
		t.Errorf("Close took %v: the stream held the server to its deadline", d)
	}
	if got := bc.Subscribers(); got != 0 {
		t.Errorf("subscribers after shutdown = %d, want 0", got)
	}
	// The broadcast itself stays usable for a later server.
	sub := bc.Subscribe()
	bc.Emit(Event{Name: "after"})
	select {
	case e := <-sub.Events():
		if e.Name != "after" {
			t.Errorf("post-shutdown event = %q, want after", e.Name)
		}
	case <-time.After(time.Second):
		t.Error("broadcast unusable after CloseSubscribers")
	}
	sub.Close()
}
