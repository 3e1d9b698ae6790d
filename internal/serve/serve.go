// Package serve turns the localization library into a long-running
// service: a stdlib net/http API that accepts alg.Spec and sweep-spec JSON,
// executes them on the shared bounded execution plane (internal/exec), and
// memoizes results content-addressed by canonical spec hash, so identical
// specs from different clients return byte-identical cached bytes
// instantly.
//
// API (all JSON):
//
//	POST /v1/solve        body: alg.Spec     → SolveResponse
//	POST /v1/sweep        body: sweep spec   → SweepResponse
//	GET  /v1/jobs/{id}                       → JobStatus (async submissions)
//	GET  /v1/algorithms                      → registered algorithm names
//
// Both POST endpoints run synchronously by default and accept ?async=1 to
// enqueue and return 202 with a job id. Admission is bounded: a full
// execution queue answers 429 with a Retry-After header (the backpressure
// contract), an oversized body 413, an invalid spec 400, and a draining
// server 503. Every request threads a span chain
// serve.request → exec.job → bncl.run into the configured tracer.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsnloc/internal/alg"
	"wsnloc/internal/castore"
	"wsnloc/internal/exec"
	"wsnloc/internal/obs"
	"wsnloc/internal/sweep"
	"wsnloc/internal/wsnerr"
)

// DefaultMaxBodyBytes bounds request bodies when Config leaves MaxBodyBytes
// zero: far above any legitimate spec, far below an allocation attack.
const DefaultMaxBodyBytes = 1 << 20

// DefaultRequestTimeout bounds one request's execution when Config leaves
// RequestTimeout zero.
const DefaultRequestTimeout = 5 * time.Minute

// DefaultMemoEntries bounds each response memo (solve and sweep
// separately) when Config leaves MemoEntries zero.
const DefaultMemoEntries = 256

// DefaultJobRetention is how long a finished job's status stays queryable
// when Config leaves JobRetention zero.
const DefaultJobRetention = 15 * time.Minute

// maxDoneJobs caps how many finished job entries the table retains even
// inside the retention window, so a submission burst cannot pin an
// unbounded number of result documents in memory.
const maxDoneJobs = 4096

// Config tunes a Server.
type Config struct {
	// Pool configures the shared bounded execution plane every request runs
	// on: Workers solver goroutines and a FIFO admission queue of
	// Pool.QueueDepth requests, beyond which submissions get 429.
	Pool exec.Config
	// CacheDir, when non-empty, is the content-addressed sweep cache
	// directory: cells persist across requests (and daemon restarts), so a
	// repeated sweep spec re-executes nothing. Empty keeps the memo
	// in-memory only. Sharded sweep requests (?shards=N&shard=I) and merges
	// (?merge=1) require it — the shards' journals and leases live there.
	CacheDir string
	// MemoDir, when non-empty, adds a disk tier behind the in-memory
	// response memo: exact response bytes persist content-addressed (atomic
	// writes, checksummed entries) so a daemon restart keeps hot results
	// warm. Ignored when MemoEntries is negative (memoization disabled).
	MemoDir string
	// SweepLeaseTTL is the shard-lease time-to-live for sharded sweep
	// requests: a shard silent this long is presumed dead and its lease
	// stolen (0 = the sweep engine's default).
	SweepLeaseTTL time.Duration
	// MaxBodyBytes bounds request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// RequestTimeout bounds each request's execution, queued wait included
	// (0 = DefaultRequestTimeout; negative = no limit).
	RequestTimeout time.Duration
	// MemoEntries bounds each response memo (solve and sweep separately) to
	// this many most-recently-used specs (0 = DefaultMemoEntries; negative
	// disables response memoization entirely).
	MemoEntries int
	// JobRetention is how long a finished job's status — result bytes
	// included — stays queryable via GET /v1/jobs/{id} before eviction
	// (0 = DefaultJobRetention; negative retains forever).
	JobRetention time.Duration
	// Slow-client protections applied by HTTPServer (zero = the package
	// defaults, negative = disabled). They guard the daemon's front door:
	// ReadHeaderTimeout bounds how long a connection may dribble its header
	// (the slowloris defense), ReadTimeout bounds the whole request read,
	// IdleTimeout reaps idle keep-alives, MaxHeaderBytes caps per-connection
	// header memory.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	IdleTimeout       time.Duration
	MaxHeaderBytes    int
	// Registry, when non-nil, receives the exec-pool and serve instruments
	// (it is also what the ops mux exposes on /metrics).
	Registry *obs.Registry
	// Tracer, when non-nil and enabled, receives the serve.request /
	// exec.job / solver span hierarchy of every request.
	Tracer obs.Tracer
}

// Server is the localization service: an http.Handler plus the execution
// plane behind it.
type Server struct {
	cfg    Config
	pool   *exec.Pool
	tr     obs.Tracer
	mux    *http.ServeMux
	closed atomic.Bool

	jobsMu sync.Mutex
	jobs   map[string]*jobEntry // job id → entry, finished ones expiring
	nextID atomic.Uint64

	// Response memos: canonical spec hash → exact bytes served before. Two
	// tiers: a bounded in-memory LRU (Config.MemoEntries) over an optional
	// content-addressed disk store (Config.MemoDir) that survives restarts.
	solveMemo *tieredMemo
	sweepMemo *tieredMemo

	// flights deduplicates concurrent identical requests: one execution per
	// content hash, shared by every request in flight with that hash.
	flights *flightGroup

	// The /v1/algorithms response, computed once at construction — the
	// registry is frozen after init, so re-deriving it per request was pure
	// waste.
	algBytes []byte
	algETag  string

	m *serveMetrics
}

type serveMetrics struct {
	requests    *obs.Counter
	memoHits    *obs.Counter // any-tier hits (the pre-tiering instrument)
	memHits     *obs.Counter
	memMisses   *obs.Counter
	diskHits    *obs.Counter
	diskMisses  *obs.Counter
	coalesced   *obs.Counter
	notModified *obs.Counter
	rejected    *obs.Counter
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	if reg == nil {
		return nil
	}
	return &serveMetrics{
		requests:    reg.Counter("wsnloc_serve_requests_total"),
		memoHits:    reg.Counter("wsnloc_serve_memo_hits_total"),
		memHits:     reg.Counter("wsnloc_serve_memo_mem_hits_total"),
		memMisses:   reg.Counter("wsnloc_serve_memo_mem_misses_total"),
		diskHits:    reg.Counter("wsnloc_serve_memo_disk_hits_total"),
		diskMisses:  reg.Counter("wsnloc_serve_memo_disk_misses_total"),
		coalesced:   reg.Counter("wsnloc_serve_coalesced_total"),
		notModified: reg.Counter("wsnloc_serve_not_modified_total"),
		rejected:    reg.Counter("wsnloc_serve_rejected_total"),
	}
}

func (m *serveMetrics) request() {
	if m != nil {
		m.requests.Inc()
	}
}

// memoHit records a cache hit on the given tier. A disk hit is also a miss
// on the memory tier above it, so per-tier hit rates stay honest.
func (m *serveMetrics) memoHit(tier string) {
	if m == nil {
		return
	}
	m.memoHits.Inc()
	switch tier {
	case tierMem:
		m.memHits.Inc()
	case tierDisk:
		m.memMisses.Inc()
		m.diskHits.Inc()
	}
}

// memoMiss records a full cache miss (every configured tier consulted).
func (m *serveMetrics) memoMiss(hasDisk bool) {
	if m == nil {
		return
	}
	m.memMisses.Inc()
	if hasDisk {
		m.diskMisses.Inc()
	}
}

func (m *serveMetrics) coalesce() {
	if m != nil {
		m.coalesced.Inc()
	}
}

func (m *serveMetrics) cond304() {
	if m != nil {
		m.notModified.Inc()
	}
}

func (m *serveMetrics) reject() {
	if m != nil {
		m.rejected.Inc()
	}
}

// New builds a Server and starts its execution pool. Invalid configuration
// wraps wsnerr.ErrBadConfig.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("serve: %w: MaxBodyBytes must be >= 0, got %d", wsnerr.ErrBadConfig, cfg.MaxBodyBytes)
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MemoEntries == 0 {
		cfg.MemoEntries = DefaultMemoEntries
	}
	if cfg.JobRetention == 0 {
		cfg.JobRetention = DefaultJobRetention
	}
	// The disk tier rides behind the LRU only while memoization is on; a
	// negative MemoEntries disables the response memo entirely.
	var solveDisk, sweepDisk *castore.Store
	if cfg.MemoEntries > 0 {
		var err error
		if solveDisk, err = openDiskMemo(cfg.MemoDir, "solve"); err != nil {
			return nil, err
		}
		if sweepDisk, err = openDiskMemo(cfg.MemoDir, "sweep"); err != nil {
			return nil, err
		}
	}
	// The registry is frozen after init, so the /v1/algorithms document is a
	// constant: compute its bytes and validator once instead of re-deriving
	// and re-marshaling per request.
	algBytes, err := json.Marshal(map[string]interface{}{"algorithms": alg.Names()})
	if err != nil {
		return nil, fmt.Errorf("serve: encoding algorithm list: %w", err)
	}
	algSum := sha256.Sum256(algBytes)
	poolCfg := cfg.Pool
	if poolCfg.Metrics == nil {
		poolCfg.Metrics = cfg.Registry
	}
	pool, err := exec.NewPool(poolCfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		pool:      pool,
		tr:        cfg.Tracer,
		jobs:      make(map[string]*jobEntry),
		solveMemo: &tieredMemo{mem: newMemo(cfg.MemoEntries), disk: solveDisk},
		sweepMemo: &tieredMemo{mem: newMemo(cfg.MemoEntries), disk: sweepDisk},
		flights:   newFlightGroup(),
		algBytes:  algBytes,
		algETag:   etagOf(hex.EncodeToString(algSum[:])),
		m:         newServeMetrics(cfg.Registry),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/algorithms", s.handleAlgorithms)
	s.mux = mux
	return s, nil
}

// Handler returns the /v1 API handler. Mount obs.NewOpsMux alongside it for
// the ops plane (wsnlocd does).
func (s *Server) Handler() http.Handler { return s.mux }

// Pool returns the server's execution plane (exposed so callers can share
// it with embedded engines).
func (s *Server) Pool() *exec.Pool { return s.pool }

// Shutdown drains the service: new requests are refused with 503, admission
// closes, and every accepted job — queued or in flight — runs to completion
// before Shutdown returns, unless ctx expires first (its error is returned
// with work still in flight). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	s.pool.Close()
	return s.pool.Drain(ctx)
}

// Closing returns whether Shutdown has begun.
func (s *Server) Closing() bool { return s.closed.Load() }

// --- request plumbing ---------------------------------------------------

// apiError is the uniform JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeReject maps an admission failure to the backpressure contract:
// queue full → 429 + Retry-After, draining → 503.
func (s *Server) writeReject(w http.ResponseWriter, err error) {
	s.m.reject()
	switch {
	case errors.Is(err, exec.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "execution queue full, retry later")
	case errors.Is(err, exec.ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// readPost runs the checks both POST endpoints share — method, drain, body
// size — and returns the body. A rejected request reports (nil, false)
// after its answer (405, 503, 413 or 400) is written.
func (s *Server) readPost(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	s.m.request()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return nil, false
	}
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		} else {
			writeError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// requestCtx derives the execution context of one request: the server's
// lifetime for async jobs (the client may hang up), the client's connection
// for sync ones, both bounded by the configured per-request timeout.
func (s *Server) requestCtx(r *http.Request, async bool) (context.Context, context.CancelFunc) {
	base := r.Context()
	if async {
		base = context.Background()
	}
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(base, s.cfg.RequestTimeout)
	}
	return context.WithCancel(base)
}

// --- jobs ---------------------------------------------------------------

// JobStatus is the GET /v1/jobs/{id} response.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"` // "solve" | "sweep"
	Hash  string `json:"hash"`
	State string `json:"state"` // "queued" | "running" | "done" | "error"
	Error string `json:"error,omitempty"`
	// Result is the endpoint's response document, present when done.
	Result json.RawMessage `json:"result,omitempty"`
	// Cached reports whether the result came from the cross-request memo.
	Cached bool `json:"cached"`
}

type jobEntry struct {
	id   string
	kind string
	hash string

	mu      sync.Mutex
	running bool
	done    bool
	doneAt  time.Time
	err     string
	result  []byte
	cached  bool
}

func (e *jobEntry) status() JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := JobStatus{ID: e.id, Kind: e.kind, Hash: e.hash, Cached: e.cached}
	switch {
	case e.done && e.err != "":
		st.State = "error"
		st.Error = e.err
	case e.done:
		st.State = "done"
		st.Result = json.RawMessage(e.result)
	case e.running:
		st.State = "running"
	default:
		st.State = "queued"
	}
	return st
}

func (e *jobEntry) start() {
	e.mu.Lock()
	e.running = true
	e.mu.Unlock()
}

func (e *jobEntry) finish(result []byte, cached bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done = true
	e.doneAt = time.Now()
	e.running = false
	e.result = result
	e.cached = cached
	if err != nil {
		e.err = err.Error()
	}
}

// abandon records a terminal state for a job whose fn never got to run —
// typically a context that expired while the job sat in the admission
// queue, which exec skips without executing. An entry that already
// finished is left untouched. Without this transition GET /v1/jobs/{id}
// would report "queued" forever for a job the pool has already discarded.
func (e *jobEntry) abandon(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return
	}
	e.done = true
	e.doneAt = time.Now()
	e.running = false
	if err == nil {
		err = errors.New("job abandoned before completion")
	}
	e.err = err.Error()
}

// doneSince reports whether the entry is terminal and when it got there.
func (e *jobEntry) doneSince() (bool, time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done, e.doneAt
}

// resultBytes returns the finished entry's response document (nil on
// error or before completion).
func (e *jobEntry) resultBytes() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.result
}

// newJob registers a job entry for one async submission, expiring stale
// finished entries on the way in.
func (s *Server) newJob(kind, hash string) *jobEntry {
	id := fmt.Sprintf("%s-%06d-%.12s", kind, s.nextID.Add(1), hash)
	e := &jobEntry{id: id, kind: kind, hash: hash}
	s.jobsMu.Lock()
	s.evictJobsLocked(time.Now())
	s.jobs[id] = e
	s.jobsMu.Unlock()
	return e
}

// dropJob removes an entry whose submission was rejected, so a 429/503
// answer does not leave a phantom "queued" job behind.
func (s *Server) dropJob(id string) {
	s.jobsMu.Lock()
	delete(s.jobs, id)
	s.jobsMu.Unlock()
}

// evictJobsLocked expires terminal job entries: anything finished longer
// than the retention window ago goes, and if a burst leaves more than
// maxDoneJobs finished entries inside the window the oldest go too. Queued
// and running entries are never touched, so a polling client can only lose
// a status it stopped asking about for a whole retention window.
func (s *Server) evictJobsLocked(now time.Time) {
	if s.cfg.JobRetention < 0 {
		return
	}
	type doneJob struct {
		id string
		at time.Time
	}
	finished := make([]doneJob, 0, len(s.jobs))
	for id, e := range s.jobs {
		done, at := e.doneSince()
		if !done {
			continue
		}
		if now.Sub(at) > s.cfg.JobRetention {
			delete(s.jobs, id)
			continue
		}
		finished = append(finished, doneJob{id, at})
	}
	if len(finished) <= maxDoneJobs {
		return
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].at.Before(finished[j].at) })
	for _, d := range finished[:len(finished)-maxDoneJobs] {
		delete(s.jobs, d.id)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.jobsMu.Lock()
	e, ok := s.jobs[id]
	s.jobsMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, e.status())
}

// handleAlgorithms serves the construction-time algorithm document with the
// same validator contract as the result endpoints: a strong ETag and an
// If-None-Match fast path to 304.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	h := w.Header()
	h.Set("ETag", s.algETag)
	h.Set("Vary", "Accept-Encoding")
	if ifNoneMatchHas(r, s.algETag) {
		s.m.cond304()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBytes(w, r, s.algBytes)
}

// --- the request pipeline ----------------------------------------------

// serveResult is the one request pipeline behind POST /v1/solve and POST
// /v1/sweep, entered once the handler has decoded and hashed the body:
// 304 → memo → flight join → leadership double-check → submit → watch →
// wait → write. run executes the request on a pool worker and returns its
// response document; attrs are extra serve.request span attributes. A
// request that is not cacheable skips the 304, the memo, the flight and
// the ETag, and its execution stays bound to the client's connection
// unless it is async.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, kind, hash string, cacheable bool,
	attrs map[string]interface{}, run func(ctx context.Context, tr obs.Tracer) ([]byte, error)) {
	async := r.URL.Query().Get("async") == "1"
	memo := s.solveMemo
	if kind == "sweep" {
		memo = s.sweepMemo
	}
	key := kind + "/" + hash
	var call *flightCall
	if cacheable {
		// Conditional fast path: a client that already holds these bytes
		// (the ETag is the content address) gets 304 before any cache or
		// pool work.
		if !async && s.answer304(w, r, hash) {
			return
		}
		// Cross-request memo: an identical spec already answered returns
		// the exact bytes it got, instantly, at any queue depth.
		cached, tier, ok := memo.Get(hash)
		if !ok {
			s.m.memoMiss(memo.disk != nil)
			// In-flight coalescing: a concurrent identical request is
			// already executing — ride it instead of burning a second run.
			var leader bool
			if call, leader = s.flights.join(key); !leader {
				s.followFlight(w, r, kind, hash, call, async)
				return
			}
			// Leadership double-check: a previous leader's memo fill
			// precedes its flight retirement, so a memo hit here means the
			// bytes landed between our miss and taking leadership. Serve
			// them and resolve the flight for any followers that raced in
			// with us — this is what makes "one execution per hash"
			// airtight rather than merely likely.
			if cached, tier, ok = memo.Get(hash); ok {
				s.flights.complete(key, call, cached, nil)
			}
		}
		if ok {
			s.m.memoHit(tier)
			if async {
				e := s.newJob(kind, hash)
				e.finish(cached, true, nil)
				s.writeAccepted(w, e)
				return
			}
			s.writeResult(w, r, hash, cached, cacheHit, tier)
			return
		}
	}

	spanAttrs := map[string]interface{}{"endpoint": "/v1/" + kind, "hash": hash, "async": async}
	for k, v := range attrs {
		spanAttrs[k] = v
	}
	reqSpan := obs.StartSpan(s.tr, "serve.request", spanAttrs)
	// Only an async submission is pollable, so only it enters the job
	// table; a synchronous request reads its bytes from an unlisted entry.
	var e *jobEntry
	if async {
		e = s.newJob(kind, hash)
	} else {
		e = &jobEntry{kind: kind, hash: hash}
	}
	// A cacheable execution is shared — followers may be riding it — so it
	// is detached from any single client connection: only the per-request
	// timeout and server drain can stop it. A follower (or even the
	// leader's client) hanging up leaves the run, the memo fill, and
	// everyone else's response intact.
	ctx, cancel := s.requestCtx(r, async || cacheable)
	job, err := s.pool.Submit(ctx, kind, reqSpan.Tracer(), func(ctx context.Context, tr obs.Tracer) error {
		e.start()
		out, err := run(ctx, tr)
		if err != nil {
			e.finish(nil, false, err)
			return err
		}
		if cacheable {
			memo.Put(hash, out)
		}
		e.finish(out, false, nil)
		return nil
	})
	if err != nil {
		cancel()
		s.dropJob(e.id)
		if call != nil {
			s.flights.complete(key, call, nil, err)
		}
		reqSpan.EndAs("rejected", map[string]interface{}{"err": err.Error()})
		s.writeReject(w, err)
		return
	}
	// Terminal-state watcher: once the pool is done with the job — ran,
	// failed, or skipped because its context died while queued — the entry
	// reaches a terminal state (without this a queued-then-expired job
	// would report "queued" forever), the flight resolves so followers
	// unblock with the result or the real typed error, and the detached
	// context is released. For async jobs it also owns the span end; sync
	// requests end their span on the response path.
	go func() {
		<-job.Done()
		err := job.Err()
		e.abandon(err)
		if call != nil {
			s.flights.complete(key, call, e.resultBytes(), err)
		}
		cancel()
		if async {
			if err != nil {
				reqSpan.EndAs("error", map[string]interface{}{"err": err.Error()})
			} else {
				reqSpan.End()
			}
		}
	}()
	if async {
		s.writeAccepted(w, e)
		return
	}
	if err := job.Wait(r.Context()); err != nil {
		if r.Context().Err() != nil {
			// Client hung up. A shared execution keeps running — followers
			// and the memo still want its result; the watcher releases the
			// context when the job finishes.
			reqSpan.EndAs("canceled", nil)
			return
		}
		reqSpan.EndAs("error", map[string]interface{}{"err": err.Error()})
		writeRunError(w, err)
		return
	}
	reqSpan.End()
	if !cacheable {
		// The hash does not address a shard slice or merge outcome — no
		// validator, exact bytes as computed.
		hash = ""
	}
	s.writeResult(w, r, hash, e.resultBytes(), cacheMiss, "")
}

// followFlight serves one coalesced request: wait for the leader's shared
// execution and answer with its byte-identical result. The follower's
// context bounds only its own wait — hanging up abandons the response, not
// the leader's run.
func (s *Server) followFlight(w http.ResponseWriter, r *http.Request, kind, hash string, call *flightCall, async bool) {
	s.m.coalesce()
	if async {
		e := s.newJob(kind, hash)
		go func() {
			<-call.done
			e.finish(call.result, call.err == nil, call.err)
		}()
		s.writeAccepted(w, e)
		return
	}
	select {
	case <-call.done:
	case <-r.Context().Done():
		return // follower hung up; the leader keeps running
	}
	err := call.err
	switch {
	case err == nil:
		s.writeResult(w, r, hash, call.result, cacheCoalesced, "")
	case errors.Is(err, exec.ErrQueueFull), errors.Is(err, exec.ErrPoolClosed):
		// The leader never got admitted; followers share its rejection.
		s.writeReject(w, err)
	default:
		writeRunError(w, err)
	}
}

// --- solve --------------------------------------------------------------

// decodeSolveBody parses one POST /v1/solve body into a validated spec and
// its content hash. It is the surface FuzzServeSolveBody exercises.
func decodeSolveBody(body []byte) (alg.Spec, string, error) {
	sp, err := alg.ParseSpec(body)
	if err != nil {
		return alg.Spec{}, "", err
	}
	hash, err := sp.Hash()
	if err != nil {
		return alg.Spec{}, "", err
	}
	return sp, hash, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readPost(w, r)
	if !ok {
		return
	}
	sp, hash, err := decodeSolveBody(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveResult(w, r, "solve", hash, true, nil, func(ctx context.Context, tr obs.Tracer) ([]byte, error) {
		// The job-span tracer rides into the algorithm, so bncl.run and its
		// rounds parent under serve.request → exec.job.
		sp.AlgOpts.Tracer = tr
		p, res, err := sp.Run(ctx)
		if err != nil {
			return nil, err
		}
		return EncodeSolveResponse(hash, sp, p, res)
	})
}

// --- sweep --------------------------------------------------------------

// sweepHash is the content address of one sweep request: SHA-256 over the
// normalized sweep document (axes expanded, defaults explicit).
func sweepHash(sw sweep.Spec) (string, error) {
	data, err := json.Marshal(sw.Normalize())
	if err != nil {
		return "", fmt.Errorf("serve: encoding sweep: %w", err)
	}
	h := sha256.New()
	h.Write([]byte("wsnloc/serve.sweep/v1\n"))
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// parseSweepShardQuery reads the distributed-sweep parameters of one
// POST /v1/sweep request: ?shards=N&shard=I runs one shard of an N-way
// split, ?merge=1 folds a directory of finished shards into the full
// summary. The two are mutually exclusive.
func parseSweepShardQuery(r *http.Request) (shards, shard int, merge bool, err error) {
	q := r.URL.Query()
	if v := q.Get("merge"); v != "" {
		if v != "1" && v != "true" {
			return 0, 0, false, fmt.Errorf("merge must be 1, got %q", v)
		}
		merge = true
	}
	if v := q.Get("shards"); v != "" {
		n, aerr := strconv.Atoi(v)
		if aerr != nil || n < 1 {
			return 0, 0, false, fmt.Errorf("shards must be a positive integer, got %q", v)
		}
		shards = n
	}
	if v := q.Get("shard"); v != "" {
		if shards == 0 {
			return 0, 0, false, fmt.Errorf("shard requires shards")
		}
		n, aerr := strconv.Atoi(v)
		if aerr != nil || n < 0 || n >= shards {
			return 0, 0, false, fmt.Errorf("shard must be in [0, %d), got %q", shards, v)
		}
		shard = n
	}
	if merge && shards > 0 {
		return 0, 0, false, fmt.Errorf("merge and shards are mutually exclusive")
	}
	return shards, shard, merge, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readPost(w, r)
	if !ok {
		return
	}
	sw, err := sweep.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := sweepHash(sw)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	shards, shardIdx, mergeReq, err := parseSweepShardQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Sharded requests and merges are not cacheable: a shard's response
	// covers only its slice of the grid, and a merge's answer depends on
	// what other workers have written to the cache directory since —
	// neither is the full-grid document the hash addresses.
	sharded := shards > 1 || mergeReq
	if sharded && s.cfg.CacheDir == "" {
		writeError(w, http.StatusBadRequest,
			"sharded sweeps and merges need a server-side cache directory (start the daemon with a cache dir)")
		return
	}
	var attrs map[string]interface{}
	if mergeReq {
		attrs = map[string]interface{}{"merge": true}
	} else if sharded {
		attrs = map[string]interface{}{"shards": shards, "shard": shardIdx}
	}
	s.serveResult(w, r, "sweep", hash, !sharded, attrs, func(ctx context.Context, tr obs.Tracer) ([]byte, error) {
		var res *sweep.Result
		var err error
		if mergeReq {
			// Merge only folds journals and cache objects — no cells
			// execute, so it runs directly on the job goroutine.
			res, err = sweep.Merge(sw, s.cfg.CacheDir)
		} else {
			// Cells fan out on the same shared pool; the caller-participating
			// scatter means this job makes progress even when the pool is
			// saturated with other requests.
			res, err = sweep.RunCtx(ctx, sw, sweep.Options{
				OutDir:     s.cfg.CacheDir,
				Resume:     s.cfg.CacheDir != "",
				Workers:    s.pool.Workers(),
				Shards:     shards,
				ShardIndex: shardIdx,
				LeaseTTL:   s.cfg.SweepLeaseTTL,
				Tracer:     tr,
				Metrics:    s.cfg.Registry,
				Pool:       s.pool,
			})
		}
		if err != nil {
			return nil, err
		}
		return EncodeSweepResponse(hash, res)
	})
}

// --- responses ----------------------------------------------------------

// writeAccepted answers an async submission: 202 plus the job's status URL.
func (s *Server) writeAccepted(w http.ResponseWriter, e *jobEntry) {
	w.Header().Set("Location", "/v1/jobs/"+e.id)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"job_id":     e.id,
		"status_url": "/v1/jobs/" + e.id,
	})
}

// Values of the X-Wsnloc-Cache response header: "miss" executed here,
// "hit" answered from the response memo (tier in X-Wsnloc-Cache-Tier), and
// "coalesced" rode a concurrent identical request's execution.
const (
	cacheMiss      = "miss"
	cacheHit       = "hit"
	cacheCoalesced = "coalesced"
)

// writeResult serves a completed result document. The identity bytes are
// written exactly as stored — a memo hit or coalesced response is
// byte-identical to the execution that produced it — with the hash as a
// strong ETag and gzip when the client negotiates it. hash may be empty
// (sharded sweep slices, whose bytes the request hash does not address), in
// which case no validator is sent.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, hash string, body []byte, cache, tier string) {
	h := w.Header()
	if hash != "" {
		h.Set("ETag", etagOf(hash))
	}
	h.Set("Vary", "Accept-Encoding")
	h.Set("X-Wsnloc-Cache", cache)
	if tier != "" {
		h.Set("X-Wsnloc-Cache-Tier", tier)
	}
	writeBytes(w, r, body)
}

// answer304 short-circuits a conditional request: when If-None-Match
// carries the hash's ETag the client already holds the exact bytes this
// content address resolves to — the response is a pure function of the
// hash — so not even a cache lookup, let alone an execution, is spent on
// it.
func (s *Server) answer304(w http.ResponseWriter, r *http.Request, hash string) bool {
	et := etagOf(hash)
	if !ifNoneMatchHas(r, et) {
		return false
	}
	s.m.cond304()
	w.Header().Set("ETag", et)
	w.WriteHeader(http.StatusNotModified)
	return true
}

// writeRunError maps an execution failure: spec problems the validators
// missed → 400, a shard lease another worker holds or a merge over a grid
// with unfinished shards → 409 (the resource's current state conflicts,
// retry once it changes), timeouts → 504, anything else → 500.
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "request timed out: %v", err)
	case errors.Is(err, sweep.ErrShardHeld), errors.Is(err, sweep.ErrIncomplete),
		errors.Is(err, sweep.ErrBadJournal):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, wsnerr.ErrBadSpec), errors.Is(err, wsnerr.ErrBadScenario),
		errors.Is(err, wsnerr.ErrBadConfig), errors.Is(err, wsnerr.ErrUnknownAlgorithm):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
