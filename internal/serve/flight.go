package serve

import "sync"

// In-flight request coalescing (singleflight). The response memo only
// amortizes *sequential* duplicates: N clients posting the same spec at the
// same instant all miss the memo and burn N full runs. The flight group
// closes that window — the first request with a given content hash becomes
// the leader and executes; every concurrent duplicate becomes a follower
// that waits on the leader's call and receives the leader's byte-identical
// bytes. One spec, one execution, at any concurrency.
//
// Leadership is decided under the group lock, so exactly one request per
// key can be the leader at a time. The leader's execution runs on a context
// detached from any single client connection (the server's lifetime bounded
// by the request timeout): a follower hanging up must not cancel the leader,
// and once followers exist the leader's own client hanging up must not
// cancel them either. The only things that stop a shared execution are the
// per-request deadline and server drain.

// flightCall is one shared execution: the leader resolves it exactly once,
// then every waiter reads the immutable result.
type flightCall struct {
	done chan struct{} // closed after result/err are set

	// Written by the leader's completion path before done closes; read-only
	// afterwards.
	result []byte
	err    error
}

// flightGroup deduplicates concurrent executions by content-hash key.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// join returns the flight for key. leader reports whether the caller owns
// the execution (it MUST eventually call complete, on every path, or
// followers wait until their own contexts expire).
func (g *flightGroup) join(key string) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// complete resolves the leader's call — result and err become visible to
// every follower — and retires the key so the next request starts a fresh
// flight (normally it will hit the memo instead). Idempotent per call: only
// the first completion publishes.
func (g *flightGroup) complete(key string, c *flightCall, result []byte, err error) {
	g.mu.Lock()
	if g.calls[key] == c {
		delete(g.calls, key)
	}
	g.mu.Unlock()
	select {
	case <-c.done:
		// Already completed (defensive; the leader completes exactly once).
	default:
		c.result = result
		c.err = err
		close(c.done)
	}
}

// inFlight reports the live flight count (test/diagnostic helper).
func (g *flightGroup) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
