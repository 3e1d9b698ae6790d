package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// request is one HTTP call the benchmark makes to wsnlocd.
type request struct {
	path string // "/v1/solve" or "/v1/sweep"
	body []byte
	// hash is the content address the daemon must answer with: the ETag of
	// the response and the key its memo stores the bytes under.
	hash string
	// revalidate makes the request conditional on bytes the client already
	// holds (If-None-Match: the hash's ETag); the answer must be a 304.
	revalidate bool
}

// sample is the outcome of one request.
type sample struct {
	req *request
	// due is when the request was scheduled to be sent (open loop) or was
	// sent (closed loop); latency runs from due to the last response byte.
	due     time.Time
	latency time.Duration
	status  int
	verdict string // X-Wsnloc-Cache: miss, hit or coalesced
	tier    string // X-Wsnloc-Cache-Tier of a hit
	etag    string
	wire    int    // body bytes as received (compressed when gzip was used)
	body    []byte // identity bytes
	// fail says why the request failed: a transport error, a status other
	// than 2xx/304, or a failed correctness check. Empty means it passed.
	fail string
}

func etagOf(hash string) string { return `"` + hash + `"` }

// client drives wsnlocd over at most conns keep-alive connections, the way
// one benchmark process with nproc connections would.
type client struct {
	base string
	hc   *http.Client
	// onConn counts requests that have been handed a connection; the open
	// loop reads it to tell queued requests from ones on the wire.
	onConn atomic.Int64
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			// Accept-Encoding is set by hand so the wire size is observable
			// and the gzip stream is decoded (and so checked) here.
			DisableCompression: true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends s.req and records the outcome in s; s.due must be set.
func (c *client) do(ctx context.Context, s *sample) {
	var counted atomic.Bool
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) {
			if counted.CompareAndSwap(false, true) {
				c.onConn.Add(1)
			}
		},
	})
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+s.req.path, bytes.NewReader(s.req.body))
	if err != nil {
		s.fail = err.Error()
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Accept-Encoding", "gzip")
	if s.req.revalidate {
		hr.Header.Set("If-None-Match", etagOf(s.req.hash))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		s.latency = time.Since(s.due)
		s.fail = err.Error()
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	s.latency = time.Since(s.due)
	if err != nil {
		s.fail = err.Error()
		return
	}
	s.status = resp.StatusCode
	s.verdict = resp.Header.Get("X-Wsnloc-Cache")
	s.tier = resp.Header.Get("X-Wsnloc-Cache-Tier")
	s.etag = resp.Header.Get("ETag")
	s.wire = len(raw)
	s.body = raw
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err == nil {
			s.body, err = io.ReadAll(zr)
		}
		if err != nil {
			s.fail = "gzip body: " + err.Error()
			return
		}
	}
	if s.status != http.StatusOK && s.status != http.StatusNotModified {
		s.fail = fmt.Sprintf("status %d: %.200s", s.status, s.body)
	}
}

// arrival is one scheduled request of an open loop.
type arrival struct {
	at  time.Duration // offset from the window start
	req *request
}

// poissonTimes returns the arrival offsets of a Poisson process of the given
// rate (per second) over [0, window): exponential gaps drawn from rng.
func poissonTimes(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < window.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// genStats is how well an open loop kept its schedule.
type genStats struct {
	late []time.Duration // per arrival: actual send − scheduled send
	// backlog is how many requests scheduled inside the window were still
	// waiting for a connection when the window closed.
	backlog int
}

// openLoop sends every arrival at its scheduled offset from now: an arrival
// the loop reaches late is sent at once, never dropped, and every request is
// timed from its schedule, so a stall counts against each request it
// delayed. It returns once every request has completed.
func (c *client) openLoop(ctx context.Context, window time.Duration, arrivals []arrival) ([]*sample, genStats) {
	samples := make([]*sample, 0, len(arrivals))
	st := genStats{late: make([]time.Duration, 0, len(arrivals))}
	connBase := c.onConn.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for _, a := range arrivals {
		if ctx.Err() != nil {
			break
		}
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		st.late = append(st.late, time.Since(due))
		s := &sample{req: a.req, due: due}
		samples = append(samples, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.do(ctx, s)
		}()
	}
	time.Sleep(time.Until(start.Add(window)))
	st.backlog = len(samples) - int(c.onConn.Load()-connBase)
	wg.Wait()
	return samples, st
}

// closedLoop runs `clients` callers that each send their next request only
// after the previous answer arrived, until the window closes or next runs
// out (returns nil); a request sent before the close runs to completion.
// next(i) builds the i-th request. Samples come back in send order, with the
// time from start to the last completion.
func (c *client) closedLoop(ctx context.Context, clients int, window time.Duration, next func(i int) *request) ([]*sample, time.Duration) {
	var (
		mu  sync.Mutex
		out []*sample
		n   atomic.Int64
		wg  sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(window)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				req := next(int(n.Add(1) - 1))
				if req == nil {
					return
				}
				s := &sample{req: req, due: time.Now()}
				c.do(ctx, s)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(out, func(i, j int) bool { return out[i].due.Before(out[j].due) })
	return out, elapsed
}

// sendAll sends every request once, over `clients` closed-loop callers.
func (c *client) sendAll(ctx context.Context, clients int, reqs []*request) []*sample {
	out, _ := c.closedLoop(ctx, clients, 24*time.Hour, func(i int) *request {
		if i < len(reqs) {
			return reqs[i]
		}
		return nil
	})
	return out
}
