package resultstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrng"
)

// ErrRemoteUnavailable is the fast-fail returned while the remote tier's
// circuit breaker is open. Layered treats any tier Get error as a miss, so
// a down remote degrades lookups to fast local misses instead of paying a
// timeout per key.
var ErrRemoteUnavailable = errors.New("resultstore: remote unavailable (circuit open)")

// ErrRecordTooLarge is returned by Remote when a response body exceeds
// maxRecordBytes. A Get that fails with it is a miss to every caller above.
var ErrRecordTooLarge = errors.New("resultstore: remote record too large")

// maxRecordBytes bounds every body the remote protocol reads: a PUT the
// Handler accepts, and a GET or length response the Remote reads. A stored
// fingerprint record is 6 + 8×cases + message bytes, about 2 KiB for the
// suite's largest stimulus (256 cases), so the bound leaves ample room while
// keeping one peer from making the other buffer without limit.
const maxRecordBytes = 1 << 20

// readRecord reads r to its end, failing with ErrRecordTooLarge past
// maxRecordBytes. It reads at most one byte beyond the bound.
func readRecord(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, maxRecordBytes+1))
	if err != nil {
		return nil, err
	}
	if len(b) > maxRecordBytes {
		return nil, ErrRecordTooLarge
	}
	return b, nil
}

// RemoteOptions tunes the remote adapter's resilience. Zero values take
// the documented defaults.
type RemoteOptions struct {
	// AttemptTimeout bounds each HTTP attempt (default 2s). This replaces
	// the old blanket 30s client timeout: a dead remote now costs at most
	// AttemptTimeout per operation, not 30s per key.
	AttemptTimeout time.Duration
	// GetRetries is the number of retries after the first attempt on
	// idempotent GET lookups (default 2; negative disables). Mutating
	// operations are never retried here — the memo layer above already
	// dedups publishes.
	GetRetries int
	// BackoffBase and BackoffCap shape the jittered retry delay
	// (defaults 25ms and 250ms).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold trips the circuit after that many consecutive
	// transport/5xx failures (default 4; 0 or negative disables).
	BreakerThreshold int
	// BreakerCooldown is the open period before a half-open probe
	// (default 3s).
	BreakerCooldown time.Duration
}

func (o *RemoteOptions) fill() {
	if o.AttemptTimeout == 0 {
		o.AttemptTimeout = 2 * time.Second
	}
	if o.GetRetries == 0 {
		o.GetRetries = 2
	}
	if o.GetRetries < 0 {
		o.GetRetries = 0
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffCap == 0 {
		o.BackoffCap = 250 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 4
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = 3 * time.Second
	}
}

// Remote is the pluggable networked adapter: a thin HTTP client speaking
// the protocol served by Handler, hardened for use as a far tier — per-
// attempt timeouts, bounded jittered retries on idempotent GETs, and a
// consecutive-failure circuit breaker so a down remote degrades to fast
// failures. It is the seam for a shared fingerprint store across vfocusd
// workers and machines — anything that answers these four routes can back
// it:
//
//	GET    /v1/fp/<designHash>/<scheduleHash>  -> 200 body | 404
//	PUT    /v1/fp/<designHash>/<scheduleHash>  <- body, 204
//	DELETE /v1/fp/<designHash>/<scheduleHash>  -> 204
//	GET    /v1/len                             -> 200 decimal count
type Remote struct {
	base    string
	c       *http.Client
	opts    RemoteOptions
	breaker remoteBreaker
}

// NewRemote returns a remote store against baseURL with default resilience
// options. A nil client gets a dedicated one (attempt deadlines come from
// per-attempt contexts, not a blanket client timeout).
func NewRemote(baseURL string, c *http.Client) *Remote {
	return NewRemoteOptions(baseURL, c, RemoteOptions{})
}

// NewRemoteOptions is NewRemote with explicit resilience tuning.
func NewRemoteOptions(baseURL string, c *http.Client, opts RemoteOptions) *Remote {
	if c == nil {
		c = &http.Client{}
	}
	opts.fill()
	r := &Remote{base: strings.TrimRight(baseURL, "/"), c: c, opts: opts}
	r.breaker.threshold = opts.BreakerThreshold
	r.breaker.cooldown = opts.BreakerCooldown
	return r
}

func (r *Remote) url(k Key) string {
	return r.base + "/v1/fp/" + k.DesignHash + "/" + k.ScheduleHash
}

// admit gates one attempt through the breaker.
func (r *Remote) admit() error {
	if !r.breaker.allow() {
		remoteFastFails.Add(1)
		return ErrRemoteUnavailable
	}
	return nil
}

// attemptCtx derives the per-attempt deadline under the caller's ctx.
func (r *Remote) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, r.opts.AttemptTimeout)
}

// Get implements Store, retrying transient failures with jittered backoff
// — GETs are idempotent, and the jitter seed derives from the key so
// drills replay identically.
func (r *Remote) Get(ctx context.Context, k Key) ([]byte, bool, error) {
	if err := k.Validate(); err != nil {
		return nil, false, err
	}
	var rng *xrng.Rand
	var lastErr error
	for attempt := 0; attempt <= r.opts.GetRetries; attempt++ {
		if attempt > 0 {
			remoteRetries.Add(1)
			if rng == nil {
				rng = xrng.New(fnvFold(k.DesignHash + "|" + k.ScheduleHash))
			}
			ceil := r.opts.BackoffBase << (attempt - 1)
			if ceil > r.opts.BackoffCap || ceil <= 0 {
				ceil = r.opts.BackoffCap
			}
			t := time.NewTimer(time.Duration(rng.Float64() * float64(ceil)))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, false, ctx.Err()
			case <-t.C:
			}
		}
		if err := r.admit(); err != nil {
			return nil, false, err
		}
		v, hit, err := r.getOnce(ctx, k)
		r.breaker.report(err == nil)
		if err == nil {
			return v, hit, nil
		}
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		if errors.Is(err, ErrRecordTooLarge) {
			return nil, false, err // the same answer on every attempt
		}
		lastErr = err
	}
	return nil, false, lastErr
}

func (r *Remote) getOnce(ctx context.Context, k Key) ([]byte, bool, error) {
	actx, cancel := r.attemptCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, r.url(k), nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := r.c.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := readRecord(resp.Body)
		if err != nil {
			return nil, false, err
		}
		return body, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("resultstore: remote GET %s: %s", r.url(k), resp.Status)
	}
}

// Put implements Store.
func (r *Remote) Put(ctx context.Context, k Key, value []byte) error {
	if err := k.Validate(); err != nil {
		return err
	}
	if err := r.admit(); err != nil {
		return err
	}
	actx, cancel := r.attemptCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPut, r.url(k), bytes.NewReader(value))
	if err != nil {
		r.breaker.abort()
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.c.Do(req)
	if err != nil {
		r.breaker.report(false)
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		r.breaker.report(false)
		return fmt.Errorf("resultstore: remote PUT %s: %s", r.url(k), resp.Status)
	}
	r.breaker.report(true)
	return nil
}

// Delete implements Store.
func (r *Remote) Delete(ctx context.Context, k Key) error {
	if err := k.Validate(); err != nil {
		return err
	}
	if err := r.admit(); err != nil {
		return err
	}
	actx, cancel := r.attemptCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodDelete, r.url(k), nil)
	if err != nil {
		r.breaker.abort()
		return err
	}
	resp, err := r.c.Do(req)
	if err != nil {
		r.breaker.report(false)
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK, http.StatusNotFound:
		r.breaker.report(true)
		return nil
	}
	r.breaker.report(false)
	return fmt.Errorf("resultstore: remote DELETE %s: %s", r.url(k), resp.Status)
}

// Len implements Store.
func (r *Remote) Len() (int, error) {
	if err := r.admit(); err != nil {
		return 0, err
	}
	actx, cancel := r.attemptCtx(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, r.base+"/v1/len", nil)
	if err != nil {
		r.breaker.abort()
		return 0, err
	}
	resp, err := r.c.Do(req)
	if err != nil {
		r.breaker.report(false)
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.breaker.report(false)
		return 0, fmt.Errorf("resultstore: remote len: %s", resp.Status)
	}
	body, err := readRecord(resp.Body)
	if err != nil {
		r.breaker.report(false)
		return 0, err
	}
	r.breaker.report(true)
	return strconv.Atoi(strings.TrimSpace(string(body)))
}

// Close implements Store.
func (r *Remote) Close() error {
	r.c.CloseIdleConnections()
	return nil
}

// --- Remote resilience plumbing ----------------------------------------------

// remoteBreaker is a compact consecutive-failure circuit breaker:
// closed → open after threshold straight failures, half-open after the
// cooldown with a single probe deciding reclose-or-reopen. (The llm HTTP
// adapter has a sibling; this one is local because resultstore sits below
// the llm import chain.)
type remoteBreaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	openedAt  time.Time
	open      bool
	probing   bool
}

func (b *remoteBreaker) allow() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.probing {
		return false
	}
	if time.Since(b.openedAt) < b.cooldown {
		return false
	}
	b.probing = true // half-open: admit exactly one probe
	return true
}

func (b *remoteBreaker) report(ok bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.failures = 0
		b.open = false
		b.probing = false
		return
	}
	if b.probing {
		// Failed probe: restart the cooldown.
		b.openedAt = time.Now()
		b.probing = false
		remoteTrips.Add(1)
		return
	}
	b.failures++
	if b.failures >= b.threshold && !b.open {
		b.open = true
		b.openedAt = time.Now()
		remoteTrips.Add(1)
	}
}

// abort releases an admission that never produced a wire outcome.
func (b *remoteBreaker) abort() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Process-wide remote-tier counters, surfaced through
// testbench.ReadStoreStats and vfocusd /statsz.
var (
	remoteRetries   atomic.Uint64
	remoteTrips     atomic.Uint64
	remoteFastFails atomic.Uint64
)

// RemoteStats is a snapshot of the remote adapter counters.
type RemoteStats struct {
	Retries      uint64 `json:"remote_retries"`
	BreakerTrips uint64 `json:"remote_breaker_trips"`
	FastFails    uint64 `json:"remote_fast_fails"`
}

// ReadRemoteStats snapshots the counters.
func ReadRemoteStats() RemoteStats {
	return RemoteStats{
		Retries:      remoteRetries.Load(),
		BreakerTrips: remoteTrips.Load(),
		FastFails:    remoteFastFails.Load(),
	}
}

// ResetRemoteStats zeroes the counters (tests).
func ResetRemoteStats() {
	remoteRetries.Store(0)
	remoteTrips.Store(0)
	remoteFastFails.Store(0)
}

// fnvFold hashes a string with FNV-1a (jitter seeding).
func fnvFold(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// Handler serves the Remote protocol over any backing Store — the
// reference server implementation the contract suite runs against
// (httptest in-process; a real deployment mounts it behind net/http).
func Handler(backing Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/len", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		n, err := backing.Len()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, n)
	})
	mux.HandleFunc("/v1/fp/", func(w http.ResponseWriter, req *http.Request) {
		rest := strings.TrimPrefix(req.URL.Path, "/v1/fp/")
		dh, sh, ok := strings.Cut(rest, "/")
		k := Key{DesignHash: dh, ScheduleHash: sh}
		if !ok || strings.Contains(sh, "/") || k.Validate() != nil {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		switch req.Method {
		case http.MethodGet:
			v, hit, err := backing.Get(req.Context(), k)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if !hit {
				http.NotFound(w, req)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(v)
		case http.MethodPut:
			body, err := readRecord(req.Body)
			if errors.Is(err, ErrRecordTooLarge) {
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
				return
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := backing.Put(req.Context(), k, body); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case http.MethodDelete:
			if err := backing.Delete(req.Context(), k); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	return mux
}
