package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/verilog/ast"
	"repro/internal/verilog/printer"
)

// keyMemo caches both design keys by AST identity: printing a design is
// comparable in cost to compiling it, and the same parsed candidate is keyed
// several times per pipeline run (dedup, ranking, refinement checks). Each
// entry holds whichever of the two keys have been asked for. Candidate ASTs
// come from the front-end memo (eval.ParseCached), which drops an AST's
// entry here through DropDesignKeys when it evicts the AST, so this memo
// keeps no evicted AST alive. ASTs parsed outside that memo (tests, direct
// parser.Parse callers) and ASTs keyed after their eviction are bounded by a
// backstop: the memo is cleared wholesale when it reaches keyMemoCap
// entries.
var (
	keyMemoMu sync.Mutex
	keyMemo   = make(map[*ast.Source]designKeys)
)

// normalPrints and canonPrints count the keys printed on memo misses.
var normalPrints, canonPrints atomic.Uint64

// keyPrinting holds the keys being printed, each claimed by the goroutine
// printing it; keyMemoCond wakes the callers waiting for one. Both are
// guarded by keyMemoMu.
var (
	keyPrinting = make(map[keyClaim]bool)
	keyMemoCond = sync.NewCond(&keyMemoMu)
)

// keyClaim names one key of one AST.
type keyClaim struct {
	src    *ast.Source
	normal bool
}

// designKeys is one keyMemo entry; an empty field is not computed yet.
type designKeys struct {
	canon  string // CanonicalKey
	normal string // NormalKey
}

const keyMemoCap = 4096

// DropDesignKeys forgets src's memoized design keys. The front-end memo
// calls it when it evicts src.
func DropDesignKeys(src *ast.Source) {
	keyMemoMu.Lock()
	delete(keyMemo, src)
	keyMemoMu.Unlock()
}

// DesignKeyPrints reports how many NormalKeys and CanonicalKeys have been
// printed and hashed, that is, computed on a memo miss.
func DesignKeyPrints() (normal, canonical uint64) {
	return normalPrints.Load(), canonPrints.Load()
}

// keyBufPool recycles the buffers the keys print into. Buffers that grew
// past keyBufMaxPooled are dropped rather than pooled, so one huge candidate
// cannot pin its print buffer for the life of the process.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

const keyBufMaxPooled = 64 << 10

// normalKeyTag opens every NormalKey preimage. A printed source is empty or
// starts with "module", never with the tag, so no NormalKey equals a
// CanonicalKey, and results stored under the older text-keyed scheme are
// never found by it.
const normalKeyTag = "vfocus-normal-v1\x00"

// CanonicalKey returns a canonical content hash of a design: the SHA-256 of
// its printed source, hashed straight from a reused print buffer. Two ASTs
// that print identically — same code modulo the formatting and comments the
// printer normalizes away — share a key. It is the compile cache's key: a
// compiled Design carries its source's own net names (VCD dumps, name
// lookups), so only textually equal designs may share one. ASTs are assumed
// immutable once handed to the simulator, so the key is memoized per AST.
func CanonicalKey(src *ast.Source) string {
	return designKey(src, false)
}

// NormalKey returns the behavioural identity of a design: the SHA-256 of
// its normal form (printer.AppendNormal) under a domain tag. Cosmetic
// variants — internal nets renamed, sized literals re-based, operands of
// +, &, | and ^ swapped — share a NormalKey, and a design's fingerprint is a
// function of it: the fingerprint memo, the persistent store and the
// ranking dedup key on it, so a variant whose normal form is already
// answered is neither compiled nor simulated. Memoized per AST beside
// CanonicalKey.
func NormalKey(src *ast.Source) string {
	return designKey(src, true)
}

// designKey returns src's normal or canonical key through keyMemo. A miss
// is single-flight: the first caller claims the key in keyPrinting, and
// concurrent callers for the same key wait on keyMemoCond for it. The hit
// path is one lock and one lookup.
func designKey(src *ast.Source, normal bool) string {
	keyMemoMu.Lock()
	if k := keyMemo[src].get(normal); k != "" {
		keyMemoMu.Unlock()
		return k
	}
	claim := keyClaim{src, normal}
	for keyPrinting[claim] {
		keyMemoCond.Wait()
		if k := keyMemo[src].get(normal); k != "" {
			keyMemoMu.Unlock()
			return k
		}
	}
	keyPrinting[claim] = true
	keyMemoMu.Unlock()

	var k string
	// Publish the key, or only release the claim if printing panicked.
	defer func() {
		keyMemoMu.Lock()
		delete(keyPrinting, claim)
		if k != "" {
			if len(keyMemo) >= keyMemoCap {
				keyMemo = make(map[*ast.Source]designKeys, keyMemoCap)
			}
			ks := keyMemo[src] // the other key may have landed meanwhile
			if normal {
				ks.normal = k
			} else {
				ks.canon = k
			}
			keyMemo[src] = ks
		}
		keyMemoMu.Unlock()
		keyMemoCond.Broadcast()
	}()
	bp := keyBufPool.Get().(*[]byte)
	var buf []byte
	if normal {
		buf = printer.AppendNormal(append((*bp)[:0], normalKeyTag...), src)
		normalPrints.Add(1)
	} else {
		buf = printer.AppendSource((*bp)[:0], src)
		canonPrints.Add(1)
	}
	sum := sha256.Sum256(buf)
	if cap(buf) <= keyBufMaxPooled {
		*bp = buf
		keyBufPool.Put(bp)
	}
	k = hex.EncodeToString(sum[:])
	return k
}

func (ks designKeys) get(normal bool) string {
	if normal {
		return ks.normal
	}
	return ks.canon
}

// ContentHash folds a design key — the fingerprint memo's NormalKey — and
// the top module into the single hex digest that addresses the design in
// the persistent fingerprint store. It needs no compiled design: a store hit
// is answered before the candidate is compiled.
func ContentHash(key, top string) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(top))
	return hex.EncodeToString(h.Sum(nil))
}

// CompileCache memoizes Compile results keyed by (CanonicalKey, top module).
// It is safe for concurrent use and concurrent requests for the same design
// share a single compilation. A bounded LRU keeps memory in check; failed
// compilations are cached too (invalid candidates recur just as often).
type CompileCache struct {
	mu  sync.Mutex
	cap int
	m   map[cacheKey]*cacheEntry
	// Intrusive LRU list over the entries, most recently used first. Entries
	// are their own nodes, so a cache hit allocates nothing and a miss
	// allocates exactly the entry (memo-cold ranking calls look up dozens of
	// candidates per batch, which made per-call closure and list-element
	// allocations a measurable slice of the cold path).
	front *cacheEntry
	back  *cacheEntry
	n     int

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheKey struct {
	hash string
	top  string
}

type cacheEntry struct {
	key     cacheKey
	once    sync.Once
	compile func() (*Design, error)
	d       *Design
	err     error
	// done flips after resolve completes. The LRU eviction loop reads it to
	// pin in-flight entries: evicting an entry before its resolve() ran
	// would hand every subsequent caller of that key a fresh entry and a
	// fresh compilation, defeating the single-flight guarantee exactly when
	// it matters (a burst of concurrent callers on a cold key).
	done atomic.Bool

	prev *cacheEntry // LRU links, guarded by CompileCache.mu
	next *cacheEntry
}

// resolve runs the compilation exactly once (whichever caller gets here
// first does the work; the rest block until it is done) and returns it.
// A panicking compilation resolves to an error rather than escaping: the
// once is spent either way, and without the recover the entry would be
// poisoned — done never set (pinned against eviction forever) and every
// waiter handed a nil design with a nil error. Compilation is a pure
// function of the source, so caching the crash as a failure follows the
// same policy as caching ordinary compile errors.
func (e *cacheEntry) resolve() (*Design, error) {
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.d, e.err = nil, fmt.Errorf("compile panicked: %v", r)
			}
			e.compile = nil
			e.done.Store(true)
		}()
		e.d, e.err = e.compile()
	})
	return e.d, e.err
}

// NewCompileCache returns a cache bounded to capacity designs (minimum 1).
func NewCompileCache(capacity int) *CompileCache {
	if capacity < 1 {
		capacity = 1
	}
	return &CompileCache{
		cap: capacity,
		m:   make(map[cacheKey]*cacheEntry, capacity),
	}
}

// unlink detaches e from the LRU list. Callers hold c.mu.
func (c *CompileCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
	c.n--
}

// pushFront makes e the most recently used entry. Callers hold c.mu.
func (c *CompileCache) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, c.front
	if c.front != nil {
		c.front.prev = e
	}
	c.front = e
	if c.back == nil {
		c.back = e
	}
	c.n++
}

// Get returns the compiled design for src/top, compiling at most once per
// canonical source even under concurrent callers.
func (c *CompileCache) Get(src *ast.Source, top string) (*Design, error) {
	key := cacheKey{hash: CanonicalKey(src), top: top}
	if e := c.touch(key); e != nil {
		return e.resolve()
	}
	return c.get(key, func() (*Design, error) { return Compile(src, top) })
}

// touch returns the resident entry for key freshened to the LRU front, or
// nil on a miss. Splitting the hit path out lets Get construct its compile
// closure only on misses — a cache hit allocates nothing, which matters on
// memo-cold ranking calls that key dozens of candidates.
func (c *CompileCache) touch(key cacheKey) *cacheEntry {
	c.mu.Lock()
	e, ok := c.m[key]
	if ok && c.front != e {
		c.unlink(e)
		c.pushFront(e)
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	c.hits.Add(1)
	return e
}

// get looks up or inserts the entry for key, evicting only *resolved*
// entries past the cap (unresolved ones stay pinned until their compilation
// finishes; the cache may transiently exceed cap by the number of in-flight
// compilations).
func (c *CompileCache) get(key cacheKey, compile func() (*Design, error)) (*Design, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		if c.front != e {
			c.unlink(e)
			c.pushFront(e)
		}
		c.mu.Unlock()
		c.hits.Add(1)
		return e.resolve()
	}
	e := &cacheEntry{key: key, compile: compile}
	c.m[key] = e
	c.pushFront(e)
	for c.n > c.cap {
		oldest := c.back
		for oldest != nil && !oldest.done.Load() {
			oldest = oldest.prev
		}
		if oldest == nil {
			break // every entry is in flight; retry eviction on later inserts
		}
		c.unlink(oldest)
		delete(c.m, oldest.key)
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return e.resolve()
}

// Stats reports cumulative cache hits and misses.
func (c *CompileCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cached designs.
func (c *CompileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// defaultCacheCapacity bounds the process-wide cache. Designs are small
// (closures plus a value snapshot), and the experiment drivers churn through
// thousands of candidates, most of them duplicates.
const defaultCacheCapacity = 1024

// DefaultCache is the process-wide compile cache used by CompileCached.
var DefaultCache = NewCompileCache(defaultCacheCapacity)

// CompileCached is Compile through the process-wide elaboration cache:
// repeated evaluations of identical (or cosmetically different but
// canonically equal) candidates skip elaboration and compilation entirely.
func CompileCached(src *ast.Source, top string) (*Design, error) {
	return DefaultCache.Get(src, top)
}
