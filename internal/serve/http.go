package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HTTP plumbing shared by every handler: pooled encode buffers (a response
// costs one buffer checkout, not a fresh allocation per write), pooled gzip
// writers, strong-ETag conditional requests, and the hardened http.Server
// constructor.

// Slow-client defaults for HTTPServer. ReadHeaderTimeout is the slowloris
// defense; ReadTimeout additionally bounds the body (safe for long-running
// handlers — net/http clears the read deadline once the body is consumed);
// IdleTimeout reaps idle keep-alive connections; MaxHeaderBytes caps header
// memory per connection.
const (
	DefaultReadHeaderTimeout = 10 * time.Second
	DefaultReadTimeout       = 2 * time.Minute
	DefaultIdleTimeout       = 2 * time.Minute
	DefaultMaxHeaderBytes    = 1 << 16
)

// HTTPServer builds an http.Server over handler with the Config's
// slow-client protections applied (zero fields take the defaults above,
// negative durations disable that timeout). Every daemon front end should
// go through this: an unconfigured http.Server lets one stalled header hold
// a connection — and its goroutine — forever.
func (cfg Config) HTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: timeoutOrDefault(cfg.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		ReadTimeout:       timeoutOrDefault(cfg.ReadTimeout, DefaultReadTimeout),
		IdleTimeout:       timeoutOrDefault(cfg.IdleTimeout, DefaultIdleTimeout),
		MaxHeaderBytes:    maxHeaderOrDefault(cfg.MaxHeaderBytes),
	}
}

func timeoutOrDefault(d, def time.Duration) time.Duration {
	switch {
	case d < 0:
		return 0 // explicit opt-out
	case d == 0:
		return def
	default:
		return d
	}
}

func maxHeaderOrDefault(n int) int {
	switch {
	case n < 0:
		return 0 // stdlib default (1 MiB)
	case n == 0:
		return DefaultMaxHeaderBytes
	default:
		return n
	}
}

// --- pooled encoding ------------------------------------------------------

// bufPool recycles response encode buffers. Buffers that grew past
// maxPooledBuf (an outlier sweep document) are dropped instead of pinned.
var bufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// writeJSON is the single JSON response writer: it encodes v into a pooled
// buffer (checking the encode error before any byte reaches the wire, so an
// unencodable value becomes a clean 500 instead of a torn 200), sets
// Content-Length, and writes. Every handler routes through it or
// writeBytes — no per-call json.NewEncoder allocations, no unchecked
// Encode errors.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// --- gzip -----------------------------------------------------------------

// gzipMinBytes is the smallest body worth compressing: below it the gzip
// framing eats the savings.
const gzipMinBytes = 512

// gzipLevel is fixed so the negotiated bytes are a deterministic function
// of the identity bytes: the same hash always yields the same gzip stream
// (gzip.Writer emits no timestamp by default).
const gzipLevel = gzip.BestSpeed

var gzipPool = sync.Pool{
	New: func() interface{} {
		zw, _ := gzip.NewWriterLevel(nil, gzipLevel)
		return zw
	},
}

// acceptsGzip reports whether the request negotiates gzip: a gzip coding in
// Accept-Encoding whose q-value, if any, is above zero (RFC 9110: q=0,
// q=0.0 and Q=0.000 all mean "not acceptable"). gzip is our only
// alternative coding, so finer q-value ranking is not needed.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(coding), "gzip") {
			continue
		}
		for _, param := range strings.Split(params, ";") {
			if name, val, _ := strings.Cut(param, "="); strings.EqualFold(strings.TrimSpace(name), "q") {
				q, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
				return err != nil || q > 0
			}
		}
		return true
	}
	return false
}

// gzipBytes compresses body into a pooled buffer using a pooled writer. The
// returned buffer must be released with putBuf.
func gzipBytes(body []byte) (*bytes.Buffer, error) {
	buf := getBuf()
	zw := gzipPool.Get().(*gzip.Writer)
	zw.Reset(buf)
	_, werr := zw.Write(body)
	cerr := zw.Close()
	gzipPool.Put(zw)
	if werr != nil || cerr != nil {
		putBuf(buf)
		if werr != nil {
			return nil, werr
		}
		return nil, cerr
	}
	return buf, nil
}

// --- conditional requests -------------------------------------------------

// etagOf renders the strong entity tag of a content hash. The response
// bytes are a pure function of the hash (the content address of the
// normalized spec), so the hash IS the validator — no body digest needed.
func etagOf(hash string) string { return `"` + hash + `"` }

// ifNoneMatchHas reports whether the request's If-None-Match header matches
// etag: either the wildcard or the tag itself anywhere in the
// comma-separated list (weak-comparison W/ prefixes are accepted — byte
// identity per hash makes weak and strong equivalent here).
func ifNoneMatchHas(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || cand == etag || cand == "W/"+etag {
			return true
		}
	}
	return false
}

// writeBytes serves preassembled response bytes with the zero-waste
// contract: Content-Length always set, gzip when negotiated and worthwhile
// (compressed into a pooled buffer by a pooled writer), and no marshal work
// at all — cached hits reach the socket without touching encoding/json.
func writeBytes(w http.ResponseWriter, r *http.Request, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if len(body) >= gzipMinBytes && acceptsGzip(r) {
		if zbuf, err := gzipBytes(body); err == nil {
			defer putBuf(zbuf)
			h.Set("Content-Encoding", "gzip")
			h.Set("Content-Length", strconv.Itoa(zbuf.Len()))
			w.WriteHeader(http.StatusOK)
			w.Write(zbuf.Bytes())
			return
		}
		// Compression failure falls through to identity — never a 500 for
		// bytes we already have.
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
