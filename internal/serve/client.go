package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"wsnloc/internal/alg"
	"wsnloc/internal/sweep"
)

// ErrBusy reports a 429 from the daemon: the execution queue was full. The
// request was not accepted; retry after the interval in RetryAfter.
var ErrBusy = errors.New("serve: server busy, retry later")

// ErrUnavailable reports a 503: the daemon is draining for shutdown.
var ErrUnavailable = errors.New("serve: server unavailable")

// Client is a typed client for a wsnlocd daemon.
type Client struct {
	// Base is the daemon's root URL (e.g. "http://127.0.0.1:8080").
	Base string
	// HTTP is the transport (nil = http.DefaultClient). Set its Timeout to
	// bound synchronous calls; solve/sweep block until the daemon answers.
	HTTP *http.Client
}

// NewClient builds a client for the daemon at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// SolveResult is a solve response plus its transport-level cache verdict.
type SolveResult struct {
	SolveResponse
	// Cached reports whether the daemon answered from its cross-request
	// memo (the X-Wsnloc-Cache header).
	Cached bool
	// Raw is the exact response body, byte-identical across memo hits.
	Raw []byte
}

// SweepResult is a sweep response plus its cache verdict and raw bytes.
type SweepResult struct {
	SweepResponse
	Cached bool
	Raw    []byte
}

// Solve submits a spec to POST /v1/solve and blocks for the result.
func (c *Client) Solve(ctx context.Context, sp alg.Spec) (*SolveResult, error) {
	out := &SolveResult{}
	var err error
	if out.Raw, out.Cached, err = c.post(ctx, "/v1/solve", sp, &out.SolveResponse); err != nil {
		return nil, err
	}
	return out, nil
}

// Sweep submits a sweep spec to POST /v1/sweep and blocks for the summary.
func (c *Client) Sweep(ctx context.Context, sw sweep.Spec) (*SweepResult, error) {
	out := &SweepResult{}
	var err error
	if out.Raw, out.Cached, err = c.post(ctx, "/v1/sweep", sw, &out.SweepResponse); err != nil {
		return nil, err
	}
	return out, nil
}

// Job fetches GET /v1/jobs/{id}.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if _, _, err := c.do(req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// post runs one POST round-trip of in, encoded as JSON, and decodes the
// answer into out (see do).
func (c *Client) post(ctx context.Context, path string, in, out interface{}) (raw []byte, cached bool, err error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, false, fmt.Errorf("serve: encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

// do runs one round-trip, mapping the backpressure statuses to their
// sentinels, decoding a 200 body into out, and returning the exact body
// bytes plus the memo verdict.
func (c *Client) do(req *http.Request, out interface{}) (raw []byte, cached bool, err error) {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, apiErrorOf(resp, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, false, fmt.Errorf("serve: decoding %s response: %w", req.URL.Path, err)
	}
	// Both memo hits and coalesced responses were served without a fresh
	// execution — the caller's signal that the daemon did no new work.
	verdict := resp.Header.Get("X-Wsnloc-Cache")
	return raw, verdict == "hit" || verdict == "coalesced", nil
}

// RetryAfter extracts a 429's suggested backoff (zero when absent or err is
// not ErrBusy).
func RetryAfter(err error) time.Duration {
	var be *busyError
	if errors.As(err, &be) {
		return be.retryAfter
	}
	return 0
}

type busyError struct {
	retryAfter time.Duration
}

func (e *busyError) Error() string { return ErrBusy.Error() }
func (e *busyError) Unwrap() error { return ErrBusy }

// apiErrorOf maps a non-200 response to a typed error.
func apiErrorOf(resp *http.Response, raw []byte) error {
	var env apiError
	msg := strings.TrimSpace(string(raw))
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		msg = env.Error
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		after := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			var secs int
			if _, err := fmt.Sscanf(s, "%d", &secs); err == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
		}
		return &busyError{retryAfter: after}
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", ErrUnavailable, msg)
	default:
		return fmt.Errorf("serve: %s: %s", resp.Status, msg)
	}
}
