package main

import (
	"context"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeededAndInsideTheWindow(t *testing.T) {
	const rate, window = 400.0, 20 * time.Second
	a := poissonTimes(rand.New(rand.NewPCG(7, streamMix)), rate, window)
	b := poissonTimes(rand.New(rand.NewPCG(7, streamMix)), rate, window)
	c := poissonTimes(rand.New(rand.NewPCG(8, streamMix)), rate, window)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	// Count ~ Poisson(8000): ±5 standard deviations.
	if want, sd := rate*window.Seconds(), math.Sqrt(rate*window.Seconds()); math.Abs(float64(len(a))-want) > 5*sd {
		t.Errorf("%d arrivals, want about %.0f", len(a), want)
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= window {
		t.Errorf("schedule not sorted inside [0, %s): first %s last %s", window, a[0], a[len(a)-1])
	}
}

// Exponential gaps have a standard deviation equal to their mean; a ticker,
// the flaw this generator avoids, has none.
func TestPoissonGapsAreExponential(t *testing.T) {
	const rate = 100.0
	times := poissonTimes(rand.New(rand.NewPCG(3, 3)), rate, 200*time.Second)
	var gaps []float64
	prev := time.Duration(0)
	for _, at := range times {
		gaps = append(gaps, (at - prev).Seconds())
		prev = at
	}
	m := mean(gaps)
	var ss float64
	for _, g := range gaps {
		ss += (g - m) * (g - m)
	}
	sd := math.Sqrt(ss / float64(len(gaps)))
	if math.Abs(m-1/rate)/(1/rate) > 0.03 {
		t.Errorf("mean gap %.5fs, want %.5fs", m, 1/rate)
	}
	if cv := sd / m; math.Abs(cv-1) > 0.05 {
		t.Errorf("gap coefficient of variation %.3f, want 1", cv)
	}
}

// slowServer answers every request after d, one at a time per connection.
func slowServer(t *testing.T, d time.Duration) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		w.Header().Set("X-Wsnloc-Cache", "miss")
		w.Write([]byte("{}"))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// Three arrivals due at once on one connection to a 30 ms server: none may
// be dropped, each is timed from its schedule (so the last one served
// carries the wait behind the other two), and the two still queued for the
// connection when a 20 ms window closes are the backlog.
func TestOpenLoopNeverDropsAndTimesFromSchedule(t *testing.T) {
	srv := slowServer(t, 30*time.Millisecond)
	c := newClient(srv.URL, 1)
	defer c.close()
	req := &request{path: "/v1/solve", body: []byte("{}")}
	arrivals := []arrival{{0, req}, {0, req}, {0, req}}
	samples, st := c.openLoop(context.Background(), 20*time.Millisecond, arrivals)
	if len(samples) != 3 {
		t.Fatalf("%d samples, want 3", len(samples))
	}
	var slowest time.Duration
	for i, s := range samples {
		if s.fail != "" {
			t.Fatalf("request %d failed: %s", i, s.fail)
		}
		slowest = max(slowest, s.latency)
	}
	// Whichever request got the connection last waited for the other two.
	if slowest < 85*time.Millisecond {
		t.Errorf("slowest latency %s, want >= 90ms from its schedule", slowest)
	}
	if st.backlog != 2 {
		t.Errorf("backlog at window end %d, want 2", st.backlog)
	}
	if len(st.late) != 3 {
		t.Errorf("%d lateness samples, want 3", len(st.late))
	}
}

func TestSendAllSendsEachRequestOnce(t *testing.T) {
	srv := slowServer(t, 0)
	c := newClient(srv.URL, 2)
	defer c.close()
	var reqs []*request
	for range 5 {
		reqs = append(reqs, &request{path: "/v1/solve", body: []byte("{}")})
	}
	samples := c.sendAll(context.Background(), 2, reqs)
	if len(samples) != len(reqs) {
		t.Fatalf("%d samples, want %d", len(samples), len(reqs))
	}
	seen := map[*request]bool{}
	for _, s := range samples {
		if seen[s.req] {
			t.Fatal("a request was sent twice")
		}
		seen[s.req] = true
	}
}

func TestMixArrivalsFollowTheMix(t *testing.T) {
	b := &bench{cfg: config{seed: 5, window: 10 * time.Second}, sz: fullSizes}
	arrivals := b.mixArrivals()
	hot := map[string]bool{}
	for _, r := range b.hotSet() {
		hot[r.hash] = true
	}
	var pairs, reads, revalidations, fresh int
	for i := 0; i < len(arrivals); i++ {
		a := arrivals[i]
		switch {
		case i+1 < len(arrivals) && arrivals[i+1].at == a.at && arrivals[i+1].req == a.req:
			pairs++
			i++
		case a.req.revalidate:
			revalidations++
		case hot[a.req.hash]:
			reads++
		default:
			fresh++
		}
	}
	if want := int(b.cfg.window / b.sz.pairEvery); pairs != want {
		t.Errorf("%d identical pairs, want %d", pairs, want)
	}
	n := float64(reads + revalidations + fresh)
	for _, share := range []struct {
		name      string
		got, want float64
	}{
		{"hot read", float64(reads) / n, 0.88},
		{"revalidation", float64(revalidations) / n, 0.10},
		{"fresh", float64(fresh) / n, 0.02},
	} {
		if math.Abs(share.got-share.want) > 0.02 {
			t.Errorf("%s share %.3f, want %.2f", share.name, share.got, share.want)
		}
	}
	if !slices.IsSortedFunc(arrivals, func(x, y arrival) int { return int(x.at - y.at) }) {
		t.Error("arrivals out of order")
	}
}
