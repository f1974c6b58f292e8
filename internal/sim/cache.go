package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/memo"
	"repro/internal/verilog/ast"
	"repro/internal/verilog/printer"
)

// canonKeys and normalKeys cache the two design keys by AST identity:
// printing a design is comparable in cost to compiling it, and the same
// parsed candidate is keyed several times per pipeline run (dedup, ranking,
// refinement checks). Candidate ASTs come from the front-end memo
// (eval.ParseCached), which drops an AST's keys here through DropDesignKeys
// when it evicts the AST, so these memos keep no evicted AST alive. ASTs
// parsed outside that memo (tests, direct parser.Parse callers) and ASTs
// keyed after their eviction are bounded by the memos' own limit.
var canonKeys, normalKeys = memo.New[*ast.Source, string](keyMemoCap), memo.New[*ast.Source, string](keyMemoCap)

// normalPrints and canonPrints count the keys printed on memo misses.
var normalPrints, canonPrints atomic.Uint64

const keyMemoCap = 4096

// DropDesignKeys forgets src's memoized design keys. The front-end memo
// calls it when it evicts src.
func DropDesignKeys(src *ast.Source) {
	canonKeys.Remove(src)
	normalKeys.Remove(src)
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

// designKey returns src's normal or canonical key through its memo.
func designKey(src *ast.Source, normal bool) string {
	keys := canonKeys
	if normal {
		keys = normalKeys
	}
	return keys.Do(src, func() string { return printKey(src, normal) })
}

// printKey prints and hashes src's normal or canonical key.
func printKey(src *ast.Source, normal bool) string {
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
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
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
	m *memo.Cache[cacheKey, compiled]
}

type cacheKey struct {
	hash string
	top  string
}

// compiled is one compilation's outcome.
type compiled struct {
	d   *Design
	err error
}

// NewCompileCache returns a cache bounded to capacity designs (minimum 1).
func NewCompileCache(capacity int) *CompileCache {
	return &CompileCache{m: memo.New[cacheKey, compiled](int64(max(capacity, 1)))}
}

// Get returns the compiled design for src/top, compiling at most once per
// canonical source even under concurrent callers.
func (c *CompileCache) Get(src *ast.Source, top string) (*Design, error) {
	return c.get(cacheKey{hash: CanonicalKey(src), top: top}, func() (*Design, error) { return Compile(src, top) })
}

// get returns key's compilation, running compile on a miss. A panicking
// compilation resolves to an error rather than escaping: compilation is a
// pure function of the source, so the crash is cached like any other
// compile failure.
func (c *CompileCache) get(key cacheKey, compile func() (*Design, error)) (*Design, error) {
	r := c.m.Do(key, func() (r compiled) {
		defer func() {
			if p := recover(); p != nil {
				r = compiled{err: fmt.Errorf("compile panicked: %v", p)}
			}
		}()
		r.d, r.err = compile()
		return r
	})
	return r.d, r.err
}

// Stats reports cumulative cache hits and misses.
func (c *CompileCache) Stats() (hits, misses uint64) {
	st := c.m.Stats()
	return st.Hits, st.Misses
}

// Len returns the number of cached designs.
func (c *CompileCache) Len() int { return c.m.Len() }

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
