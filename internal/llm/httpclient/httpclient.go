// Package httpclient is the HTTP adapter behind the llm.Client port: it
// speaks an OpenAI-style completions protocol and wraps every wire request
// in a full resilience stack — prompt-hash response cache, single-flight
// coalescing of identical in-flight requests, token-bucket rate limiting
// with bounded concurrency, a consecutive-failure circuit breaker with
// half-open probing, and retries with capped exponential backoff + full
// jitter that honor Retry-After and fire only on idempotent/safe failures
// (timeouts, 429, 5xx, torn bodies — never on caller cancellation).
//
// A record/replay fixture mode keeps CI hermetic: record captures terminal
// exchanges keyed by request content hash; replay serves them with zero
// network egress. The stack order per logical request is
//
//	cache → single-flight → [per attempt: breaker → rate limit → wire]
//
// so a stampede of M identical calls costs at most one cache miss and one
// wire request, and a tripped breaker fast-fails without consuming rate
// tokens.
package httpclient

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/memo"
	"repro/internal/xrng"
)

// Options configures a Client. Zero values take the documented defaults.
type Options struct {
	// URL is the completions endpoint base (the client posts to
	// URL + CompletionsPath). Empty in record mode runs the embedded
	// reference server; empty in replay mode is fine (no dialing happens).
	URL string
	// Mode is ModeOff, ModeRecord, or ModeReplay.
	Mode string
	// FixtureDir holds the record/replay fixtures (required unless off).
	FixtureDir string

	// Retries is the number of wire retries after the first attempt
	// (default 3; negative disables retry).
	Retries int
	// AttemptTimeout bounds each wire attempt under the caller's ctx
	// (default 10s).
	AttemptTimeout time.Duration
	// BackoffBase and BackoffCap shape the exponential backoff
	// (defaults 100ms and 2s). The delay before retry n is a full-jitter
	// draw from [0, min(BackoffBase·2ⁿ, BackoffCap)], seeded from the
	// request hash so drills replay identically.
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// BreakerThreshold trips the circuit after that many consecutive wire
	// failures (default 5; 0 or negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is the open period before a half-open probe
	// (default 2s).
	BreakerCooldown time.Duration

	// RPS caps sustained wire requests per second (default 0: unlimited).
	RPS float64
	// Burst is the token-bucket burst allowance (default 2·RPS, min 1).
	Burst int
	// MaxConcurrent bounds simultaneous wire requests (default 0:
	// unlimited).
	MaxConcurrent int

	// CacheCap sizes the prompt-hash response cache (default 512 entries;
	// negative disables it).
	CacheCap int

	// Tasks scopes the embedded record-mode reference server (nil: the
	// full eval suite).
	Tasks []eval.Task
	// Transport overrides the HTTP transport (tests).
	Transport http.RoundTripper
}

func (o *Options) fill() {
	if o.Mode == "" {
		o.Mode = ModeOff
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.AttemptTimeout == 0 {
		o.AttemptTimeout = 10 * time.Second
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffCap == 0 {
		o.BackoffCap = 2 * time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.Burst == 0 {
		o.Burst = int(2 * o.RPS)
	}
	if o.CacheCap == 0 {
		o.CacheCap = 512
	}
	if o.CacheCap < 0 {
		o.CacheCap = 0
	}
}

// clientCore is the state shared by every For-derived view: one breaker,
// limiter, cache, single-flight table, and counter set per process, no
// matter how many (model, seed) bindings exist.
type clientCore struct {
	opts     Options
	hc       *http.Client
	limiter  *limiter
	breaker  *breaker
	cache    *memo.Cache[string, *wireResponse] // terminal successful responses by prompt hash
	fixtures *fixtureStore
	stats    statCounters

	mu       sync.Mutex
	inflight map[string]*flightCall

	stopServer func() // embedded record-mode reference server
}

// flightCall is one in-flight wire exchange. If the leader's caller
// context is cancelled before a terminal result, the call is marked
// abandoned and one waiter adopts leadership — waiters never inherit a
// foreign cancellation.
type flightCall struct {
	done      chan struct{}
	resp      *wireResponse
	err       error
	abandoned bool
}

// Client implements llm.Client over the shared core for one (model, seed)
// binding.
type Client struct {
	*clientCore
	model string
	seed  int64
}

// New builds a client bound to model and seed. Record mode with no URL
// starts an embedded reference server; Close stops it.
func New(model string, seed int64, opts Options) (*Client, error) {
	opts.fill()
	switch opts.Mode {
	case ModeOff, ModeRecord, ModeReplay:
	default:
		return nil, fmt.Errorf("unknown llm mode %q", opts.Mode)
	}
	if opts.Mode != ModeOff && opts.FixtureDir == "" {
		return nil, fmt.Errorf("llm mode %q requires a fixture dir", opts.Mode)
	}
	core := &clientCore{
		opts:     opts,
		limiter:  newLimiter(opts.RPS, opts.Burst, opts.MaxConcurrent),
		breaker:  newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		cache:    memo.New[string, *wireResponse](int64(opts.CacheCap)),
		inflight: make(map[string]*flightCall),
	}
	if opts.Mode != ModeOff {
		core.fixtures = newFixtureStore(opts.FixtureDir)
	}
	if opts.Mode != ModeReplay {
		if opts.URL == "" {
			if opts.Mode == ModeOff {
				return nil, fmt.Errorf("llm mode off requires a URL")
			}
			srv := NewServer(opts.Tasks)
			url, stop, err := srv.Start("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			core.opts.URL = url
			core.stopServer = stop
		}
		core.hc = &http.Client{Transport: opts.Transport}
	}
	return &Client{clientCore: core, model: model, seed: seed}, nil
}

// For returns a view of the same client bound to a different (model,
// seed) — cheap enough to mint per run or per job while every binding
// shares the breaker, limiter, cache, single-flight table, and counters.
func (c *Client) For(model string, seed int64) *Client {
	return &Client{clientCore: c.clientCore, model: model, seed: seed}
}

// Close releases the embedded reference server, if any.
func (c *Client) Close() error {
	if c.stopServer != nil {
		c.stopServer()
		c.stopServer = nil
	}
	return nil
}

// ModelName implements llm.Client.
func (c *Client) ModelName() string { return c.model }

// Generate implements llm.Client.
func (c *Client) Generate(ctx context.Context, req llm.GenerateRequest) (llm.Response, error) {
	resp, err := c.do(ctx, buildGenerate(c.model, c.seed, req))
	if err != nil {
		return llm.Response{}, err
	}
	return toResponse(resp), nil
}

// Refine implements llm.Client.
func (c *Client) Refine(ctx context.Context, req llm.RefineRequest) (llm.Response, error) {
	resp, err := c.do(ctx, buildRefine(c.model, c.seed, req))
	if err != nil {
		return llm.Response{}, err
	}
	return toResponse(resp), nil
}

// JudgeOutput implements llm.Client.
func (c *Client) JudgeOutput(ctx context.Context, req llm.JudgeRequest) (llm.JudgeResponse, error) {
	resp, err := c.do(ctx, buildJudge(c.model, c.seed, req))
	if err != nil {
		return llm.JudgeResponse{}, err
	}
	return llm.JudgeResponse{Predicted: decodeTrace(resp.Choices[0].Message.Judge)}, nil
}

func toResponse(resp *wireResponse) llm.Response {
	msg := resp.Choices[0].Message
	return llm.Response{
		Code:            msg.Content,
		Reasoning:       msg.Reasoning,
		ReasoningTokens: resp.Usage.ReasoningTokens,
	}
}

// do runs one logical request through cache → single-flight → the retry
// loop, returning a validated terminal response.
func (c *Client) do(ctx context.Context, wr wireRequest) (*wireResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	body, hash, err := encodeRequest(wr)
	if err != nil {
		return nil, err
	}
	if resp, ok := c.cache.Peek(hash); ok {
		c.stats.cacheHits.Add(1)
		return resp, nil
	}
	c.stats.cacheMisses.Add(1)

	for {
		c.mu.Lock()
		if call, ok := c.inflight[hash]; ok {
			c.mu.Unlock()
			c.stats.coalesced.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-call.done:
			}
			if call.abandoned {
				continue // leader was cancelled; race to adopt leadership
			}
			return call.resp, call.err
		}
		// A leader caches its response and leaves the flight table in one
		// critical section, so a caller that missed the cache before that
		// finds the response here instead of leading a second flight.
		if resp, ok := c.cache.Peek(hash); ok {
			c.mu.Unlock()
			c.stats.coalesced.Add(1)
			return resp, nil
		}
		call := &flightCall{done: make(chan struct{})}
		c.inflight[hash] = call
		c.mu.Unlock()

		resp, err := c.attemptLoop(ctx, wr.VFocus.Op, hash, body)
		c.mu.Lock()
		if err == nil && resp != nil {
			c.cache.Put(hash, resp)
		}
		delete(c.inflight, hash)
		c.mu.Unlock()
		// A result caused by this caller's own cancellation must not be
		// published to waiters with live contexts.
		call.resp, call.err = resp, err
		call.abandoned = err != nil && ctx.Err() != nil
		close(call.done)
		return resp, err
	}
}

// attemptLoop is the per-request retry engine: breaker admission, rate
// pacing, one wire attempt per iteration, and jittered backoff between
// retryable failures. The request body is reused verbatim across attempts
// — retries are bit-identical.
func (c *Client) attemptLoop(ctx context.Context, op, hash string, body []byte) (*wireResponse, error) {
	// Jitter stream seeded from the request hash: deterministic per
	// request, decorrelated across requests.
	rng := xrng.New(hashSeed(hash))
	var lastErr error
	var retryAfter time.Duration
	retryAfterSet := false
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			c.stats.retries.Add(1)
			delay := c.backoff(attempt, rng)
			if retryAfterSet {
				delay = retryAfter
			}
			if delay > 0 {
				t := time.NewTimer(delay)
				select {
				case <-ctx.Done():
					t.Stop()
					return nil, ctx.Err()
				case <-t.C:
				}
			}
		}
		if !c.breaker.allow() {
			c.stats.breakerOpens.Add(1)
			return nil, fmt.Errorf("%w: %w", llm.ErrTransient, ErrBreakerOpen)
		}
		waited, err := c.limiter.reserve(ctx)
		if waited {
			c.stats.rateWaits.Add(1)
		}
		if err != nil {
			c.breaker.abort() // nothing reached the wire; no outcome
			return nil, err
		}
		resp, ra, raSet, err := c.attempt(ctx, op, hash, body)
		c.breaker.report(err == nil || isPermanent(err))
		if err == nil {
			return resp, nil
		}
		if ctx.Err() != nil {
			// Caller gave up (or its deadline passed): never retry.
			return nil, ctx.Err()
		}
		if isPermanent(err) {
			return nil, err
		}
		lastErr = err
		retryAfter, retryAfterSet = ra, raSet
	}
	if errors.Is(lastErr, llm.ErrTransient) {
		return nil, lastErr
	}
	return nil, fmt.Errorf("%w: %w", llm.ErrTransient, lastErr)
}

// isPermanent reports failures retry cannot help: bad requests, unknown
// task/model, missing fixtures.
func isPermanent(err error) bool {
	return errors.Is(err, llm.ErrUnknownTask) ||
		errors.Is(err, llm.ErrUnknownModel) ||
		errors.Is(err, ErrNoFixture) ||
		errors.Is(err, ErrHTTPStatus)
}

// backoff is the full-jitter capped exponential delay before retry n≥1.
func (c *Client) backoff(attempt int, rng *xrng.Rand) time.Duration {
	ceil := c.opts.BackoffBase << (attempt - 1)
	if ceil > c.opts.BackoffCap || ceil <= 0 {
		ceil = c.opts.BackoffCap
	}
	return time.Duration(rng.Float64() * float64(ceil))
}

// hashSeed folds the hex request hash into a 64-bit jitter seed.
func hashSeed(hash string) uint64 {
	raw, err := hex.DecodeString(hash[:16])
	if err != nil || len(raw) < 8 {
		return 0x9e3779b97f4a7c15
	}
	return binary.BigEndian.Uint64(raw)
}

// attempt performs one wire exchange (or fixture lookup) and classifies
// the outcome. retryAfter carries a server pacing hint when set.
func (c *Client) attempt(ctx context.Context, op, hash string, body []byte) (resp *wireResponse, retryAfter time.Duration, retryAfterSet bool, err error) {
	c.stats.wireRequests.Add(1)
	if c.opts.Mode == ModeReplay {
		resp, retryAfter, retryAfterSet, err = c.replayAttempt(op, hash)
		return
	}

	if err := c.limiter.acquire(ctx); err != nil {
		return nil, 0, false, err
	}
	defer c.limiter.release()

	attemptCtx, cancel := context.WithTimeout(ctx, c.opts.AttemptTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(attemptCtx, http.MethodPost,
		c.opts.URL+CompletionsPath, bytes.NewReader(body))
	if err != nil {
		return nil, 0, false, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := c.hc.Do(httpReq)
	if err != nil {
		// Transport-level failure: timeout, refused connection, torn
		// connection. All safe to retry (the request is idempotent).
		return nil, 0, false, fmt.Errorf("%w: %v", llm.ErrTransient, err)
	}
	defer httpResp.Body.Close()
	respBody, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, 0, false, fmt.Errorf("%w: %v", ErrTornBody, err)
	}
	return c.classify(op, hash, body, httpResp.StatusCode, httpResp.Header.Get("Retry-After"), respBody)
}

// classify maps one HTTP exchange to a terminal result or a typed,
// retryability-classified error, recording terminal exchanges in record
// mode.
func (c *Client) classify(op, hash string, reqBody []byte, status int, retryAfterHdr string, respBody []byte) (*wireResponse, time.Duration, bool, error) {
	switch {
	case status == http.StatusOK:
		resp, err := decodeResponse(respBody, op)
		if err != nil {
			// Torn/invalid body: retryable, and NOT recorded — a fixture
			// must never replay a half response.
			return nil, 0, false, err
		}
		c.record(hash, reqBody, status, "", respBody)
		return resp, 0, false, nil
	case status == http.StatusTooManyRequests:
		// Deterministic application-level throttle (the reference server
		// surfaces SimClient transients this way): terminal for fixture
		// purposes, transient for the caller.
		c.record(hash, reqBody, status, retryAfterHdr, respBody)
		ra, raSet := parseRetryAfter(retryAfterHdr)
		return nil, ra, raSet, fmt.Errorf("%w: http 429", llm.ErrTransient)
	case status >= 500:
		// Infrastructure failure: retryable, never recorded.
		ra, raSet := parseRetryAfter(retryAfterHdr)
		return nil, ra, raSet, fmt.Errorf("%w: http %d", llm.ErrTransient, status)
	default:
		// Permanent 4xx. Map structured wire errors to the llm sentinels.
		c.record(hash, reqBody, status, "", respBody)
		if err := decodeWireError(status, respBody); err != nil {
			return nil, 0, false, err
		}
		return nil, 0, false, fmt.Errorf("%w: http %d", ErrHTTPStatus, status)
	}
}

// record persists a terminal exchange in record mode.
func (c *Client) record(hash string, reqBody []byte, status int, retryAfter string, respBody []byte) {
	if c.opts.Mode != ModeRecord {
		return
	}
	c.fixtures.save(&fixture{
		Hash:       hash,
		Request:    json.RawMessage(reqBody),
		Status:     status,
		RetryAfter: retryAfter,
		Response:   json.RawMessage(respBody),
	})
}

// replayAttempt serves one attempt from the fixture store — no network.
func (c *Client) replayAttempt(op, hash string) (*wireResponse, time.Duration, bool, error) {
	fx, err := c.fixtures.load(hash)
	if err != nil {
		if errors.Is(err, ErrNoFixture) {
			c.stats.fixtureMisses.Add(1)
		}
		return nil, 0, false, err
	}
	c.stats.fixtureHits.Add(1)
	resp, ra, raSet, cerr := c.classify(op, hash, fx.Request, fx.Status, fx.RetryAfter, fx.Response)
	return resp, ra, raSet, cerr
}

// parseRetryAfter reads a seconds-valued Retry-After header.
func parseRetryAfter(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	secs, err := strconv.ParseFloat(h, 64)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs * float64(time.Second)), true
}

// ClientFactory builds an llm.Client for one (model, seed, task-set)
// binding — the shape core/exp/serve use to mint per-run clients.
type ClientFactory func(model string, seed int64, tasks []eval.Task) (llm.Client, error)

// SimFactory is the default factory: a fresh deterministic SimClient per
// binding, no network.
func SimFactory(model string, seed int64, tasks []eval.Task) (llm.Client, error) {
	profile, err := llm.ProfileByName(model)
	if err != nil {
		return nil, err
	}
	return llm.NewSimClient(profile, seed, tasks)
}

// Factory builds a ClientFactory from flag-level options. Mode off with no
// URL yields SimFactory (the hermetic default); anything else builds ONE
// shared resilient core and mints For-views per binding, so every run and
// job shares the breaker, limiter, cache, and counters. close releases the
// core (and any embedded server); stats is non-nil only for HTTP-backed
// factories.
func Factory(opts Options) (factory ClientFactory, stats func() Stats, close func() error, err error) {
	opts.fill()
	if opts.Mode == ModeOff && opts.URL == "" {
		return SimFactory, nil, func() error { return nil }, nil
	}
	root, err := New("", 0, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	factory = func(model string, seed int64, _ []eval.Task) (llm.Client, error) {
		if _, err := llm.ProfileByName(model); err != nil {
			return nil, err
		}
		return root.For(model, seed), nil
	}
	return factory, root.ReadStats, root.Close, nil
}
