package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read stderr while run() writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestBadAddrExitsOne(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-addr", "999.999.999.999:1"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr %s", code, errb.String())
	}
}

// TestDaemonServesAndDrains boots the daemon on a free port, exercises both
// planes (API solve + ops healthz), then cancels the context and verifies a
// clean drain — the in-process version of scripts/serve_smoke.sh.
func TestDaemonServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	errb := &syncBuffer{}
	done := make(chan int, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"}, &out, errb) }()

	// Parse the boot handshake off stderr.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no serving line on stderr: %s", errb.String())
		}
		for _, line := range strings.Split(errb.String(), "\n") {
			if strings.Contains(line, "serving http://") {
				base = strings.TrimSuffix(strings.Fields(line)[2], "/")
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	line, _ := bufio.NewReader(resp.Body).ReadString('\n')
	resp.Body.Close()
	if strings.TrimSpace(line) != "ok" {
		t.Errorf("healthz = %q, want ok", line)
	}

	spec := `{"scenario":{"N":40,"Field":60,"AnchorFrac":0.25,"Seed":3},"algorithm":"centroid"}`
	post, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	body, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d, body %s", post.StatusCode, body)
	}

	// /metrics must expose the exec-pool instruments (one job just ran).
	if !strings.Contains(scrape(t, base+"/metrics"), "wsnloc_exec_jobs_total") {
		t.Error("/metrics missing wsnloc_exec_jobs_total")
	}

	// An open /events stream must not hold the drain: it ends with a clean
	// EOF once shutdown starts.
	events, err := http.Get(base + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer events.Body.Close()
	for !strings.Contains(scrape(t, base+"/metrics"), "wsnloc_events_subscribers 1") {
		if time.Now().After(deadline) {
			t.Fatal("/events subscriber never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	if _, err := io.ReadAll(events.Body); err != nil {
		t.Errorf("/events stream did not end cleanly: %v", err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d, want 0; stderr %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain within 15s")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Errorf("stdout = %q, want drained cleanly", out.String())
	}
}

// scrape returns the body of a GET.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}
