package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsnloc/internal/alg"
	"wsnloc/internal/core"
	"wsnloc/internal/exec"
	"wsnloc/internal/obs"
	"wsnloc/internal/rng"
)

// The "test-gate" algorithm: a centroid run that first blocks on a
// test-controlled gate, so a test can hold an execution open while it
// arranges concurrent duplicates around it. Registered once — the registry
// is process-global — and steered through package-level state.
var (
	gateOnce sync.Once
	gateMu   sync.Mutex
	gateCh   chan struct{} // non-nil: executions block until it closes
	gateRuns atomic.Int64  // how many times the algorithm actually ran
)

type gateAlg struct {
	opts alg.Opts
}

func (g gateAlg) Name() string { return "test-gate" }

func (g gateAlg) Localize(p *core.Problem, stream *rng.Stream) (*core.Result, error) {
	return g.LocalizeCtx(context.Background(), p, stream)
}

func (g gateAlg) LocalizeCtx(ctx context.Context, p *core.Problem, stream *rng.Stream) (*core.Result, error) {
	gateRuns.Add(1)
	gateMu.Lock()
	ch := gateCh
	gateMu.Unlock()
	if ch != nil {
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	inner, err := alg.New("centroid", g.opts)
	if err != nil {
		return nil, err
	}
	return inner.Localize(p, stream)
}

func registerGateAlg() {
	gateOnce.Do(func() {
		alg.Register("test-gate", func(o alg.Opts) core.Algorithm { return gateAlg{opts: o} })
	})
}

// closeGate opens a gate: executions block until the returned release func
// runs (idempotent; also installed as a cleanup so a failing test cannot
// wedge the pool's drain).
func closeGate(t *testing.T) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	gateMu.Lock()
	gateCh = ch
	gateMu.Unlock()
	var once sync.Once
	release = func() {
		once.Do(func() {
			gateMu.Lock()
			gateCh = nil
			gateMu.Unlock()
			close(ch)
		})
	}
	t.Cleanup(release)
	return release
}

func gateSpec(seed int) []byte {
	return []byte(fmt.Sprintf(
		`{"scenario":{"N":30,"Field":50,"AnchorFrac":0.3,"Seed":2},"algorithm":"test-gate","seed":%d}`, seed))
}

func waitCounter(t *testing.T, c *obs.Counter, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %v, want >= %v", c.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateSweep is a sweep over test-gate cells: 2 seeds × 2 trials, so one
// execution of it runs the gate algorithm 4 times.
func gateSweep(seed int) []byte {
	return []byte(fmt.Sprintf(
		`{"scenarios":[{"N":30,"Field":50,"AnchorFrac":0.3,"Seed":%d}],"algorithms":["test-gate"],"seeds":[1,2],"trials":2}`, seed))
}

// TestCoalescing32IdenticalSolves is the tentpole acceptance test, run for
// both endpoints: 32 concurrent identical requests share ONE execution and
// every response is byte-identical, with exactly one "miss" and 31
// coalesced answers. A solve execution is one exec-pool job and one gate
// run; a sweep execution runs the gate once per cell trial (its pool job
// count is not checked, since the cell fan-out submits scatter helpers).
func TestCoalescing32IdenticalSolves(t *testing.T) {
	for _, tc := range []struct {
		kind     string
		body     []byte
		gateRuns int64
	}{
		{"solve", gateSpec(7), 1},
		{"sweep", gateSweep(7), 2 * 2},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			registerGateAlg()
			reg := obs.NewRegistry()
			s, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}, Registry: reg})
			release := closeGate(t)

			runs0 := gateRuns.Load()
			jobs0 := s.Pool().CompletedJobs()

			const n = 32
			var wg sync.WaitGroup
			bodies := make([][]byte, n)
			verdicts := make([]string, n)
			statuses := make([]int, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/"+tc.kind, "application/json", bytes.NewReader(tc.body))
					if err != nil {
						t.Errorf("request %d: %v", i, err)
						return
					}
					statuses[i] = resp.StatusCode
					verdicts[i] = resp.Header.Get("X-Wsnloc-Cache")
					bodies[i] = readBody(t, resp)
				}(i)
			}

			// With the gate closed the leader cannot finish, so the memo
			// cannot answer: all 31 duplicates must join its flight.
			waitCounter(t, reg.Counter("wsnloc_serve_coalesced_total"), n-1)
			release()
			wg.Wait()

			if got := gateRuns.Load() - runs0; got != tc.gateRuns {
				t.Errorf("algorithm executions = %d, want exactly %d", got, tc.gateRuns)
			}
			if tc.kind == "solve" {
				if got := s.Pool().CompletedJobs() - jobs0; got != 1 {
					t.Errorf("exec pool completed jobs = %d, want exactly 1", got)
				}
			}
			misses := 0
			for i := 1; i < n; i++ {
				if !bytes.Equal(bodies[i], bodies[0]) {
					t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
				}
			}
			for i, v := range verdicts {
				if statuses[i] != http.StatusOK {
					t.Errorf("request %d: status = %d", i, statuses[i])
				}
				switch v {
				case cacheMiss:
					misses++
				case cacheCoalesced, cacheHit:
				default:
					t.Errorf("request %d: unexpected cache verdict %q", i, v)
				}
			}
			if misses != 1 {
				t.Errorf("misses = %d, want exactly 1 (the leader)", misses)
			}
			if got := reg.Counter("wsnloc_serve_coalesced_total").Value(); got != n-1 {
				t.Errorf("coalesced counter = %v, want %d", got, n-1)
			}
		})
	}
}

// TestFollowerCancelLeavesLeaderRunning pins the disconnect contract: a
// follower hanging up abandons only its own response — the shared execution
// keeps running, completes, and populates the memo.
func TestFollowerCancelLeavesLeaderRunning(t *testing.T) {
	registerGateAlg()
	reg := obs.NewRegistry()
	s, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}, Registry: reg})
	release := closeGate(t)
	runs0 := gateRuns.Load()

	spec := gateSpec(11)
	_, hash, err := decodeSolveBody(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Leader: fires and blocks on the gate.
	leaderDone := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Errorf("leader: %v", err)
			leaderDone <- nil
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("leader status = %d", resp.StatusCode)
		}
		leaderDone <- readBody(t, resp)
	}()
	waitCounter(t, reg.Counter("wsnloc_serve_requests_total"), 1)

	// Follower: joins the flight, then hangs up.
	fctx, fcancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(fctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	followerDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		followerDone <- err
	}()
	waitCounter(t, reg.Counter("wsnloc_serve_coalesced_total"), 1)
	fcancel()
	if err := <-followerDone; err == nil {
		t.Error("follower request succeeded despite cancellation")
	}

	// The leader must still be blocked inside its single execution: the
	// follower's disconnect canceled nothing.
	if got := gateRuns.Load() - runs0; got != 1 {
		t.Fatalf("executions after follower cancel = %d, want 1 (still running)", got)
	}
	select {
	case <-leaderDone:
		t.Fatal("leader finished while the gate was closed")
	case <-time.After(50 * time.Millisecond):
	}

	release()
	body := <-leaderDone
	if body == nil {
		t.Fatal("leader failed")
	}
	if cached, tier, ok := s.solveMemo.Get(hash); !ok {
		t.Error("memo not populated after leader completion")
	} else {
		if !bytes.Equal(cached, body) {
			t.Error("memo bytes differ from the leader's response")
		}
		if tier != tierMem {
			t.Errorf("memo tier = %q, want %q", tier, tierMem)
		}
	}
	if got := gateRuns.Load() - runs0; got != 1 {
		t.Errorf("total executions = %d, want 1", got)
	}
}

// TestMemoCoalesceChurnStress hammers the memo + flight path with
// concurrent identical and distinct specs (run under -race in CI): every
// response must be byte-identical per content hash, and each distinct hash
// must execute exactly once — the leadership double-check makes that
// airtight, not probabilistic.
func TestMemoCoalesceChurnStress(t *testing.T) {
	registerGateAlg()
	s, ts := testServer(t, Config{Pool: exec.Config{Workers: 4}})

	const (
		goroutines = 8
		iterations = 24
		hashes     = 4
	)
	runs0 := gateRuns.Load()

	var mu sync.Mutex
	firstSeen := make(map[int][]byte) // seed → first response bytes

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				seed := (g + i) % hashes
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(gateSpec(seed)))
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				body := readBody(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("g%d i%d: status %d: %s", g, i, resp.StatusCode, body)
					return
				}
				mu.Lock()
				if want, ok := firstSeen[seed]; !ok {
					firstSeen[seed] = body
				} else if !bytes.Equal(body, want) {
					t.Errorf("g%d i%d: bytes diverged for seed %d", g, i, seed)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	if got := gateRuns.Load() - runs0; got != hashes {
		t.Errorf("executions = %d, want exactly %d (one per distinct hash)", got, hashes)
	}
	if got := s.flights.inFlight(); got != 0 {
		t.Errorf("flights still open after drain: %d", got)
	}
	if len(firstSeen) != hashes {
		t.Errorf("distinct specs seen = %d, want %d", len(firstSeen), hashes)
	}
}

// TestAsyncCoalescedFollower pins the async flavor: an async duplicate of
// an in-flight spec is accepted immediately and its job resolves to the
// leader's bytes once the shared execution lands.
func TestAsyncCoalescedFollower(t *testing.T) {
	registerGateAlg()
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{Pool: exec.Config{Workers: 2}, Registry: reg})
	release := closeGate(t)

	spec := gateSpec(23)
	leaderDone := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Errorf("leader: %v", err)
			leaderDone <- nil
			return
		}
		leaderDone <- readBody(t, resp)
	}()
	waitCounter(t, reg.Counter("wsnloc_serve_requests_total"), 1)

	resp := postJSON(t, ts.URL+"/v1/solve?async=1", spec)
	accepted := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async follower status = %d, body %s", resp.StatusCode, accepted)
	}
	var acc struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(accepted, &acc); err != nil {
		t.Fatal(err)
	}

	release()
	leaderBytes := <-leaderDone
	if leaderBytes == nil {
		t.Fatal("leader failed")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		jr := getJSON(t, ts.URL+acc.StatusURL)
		if jr.State == "done" {
			if !bytes.Equal([]byte(jr.Result), leaderBytes) {
				t.Fatalf("async follower result differs from leader:\n%s\nvs\n%s", jr.Result, leaderBytes)
			}
			if !jr.Cached {
				t.Error("async follower not flagged cached")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower job stuck in state %q", jr.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string) JobStatus {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad job status %s: %v", body, err)
	}
	return st
}
