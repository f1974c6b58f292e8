// Package resultstore persists fingerprint traces across runs, restarts,
// and processes. A trace is a pure function of its content-addressed key —
// the canonical design hash and the stimulus schedule hash — so any store
// entry is valid forever: there is no invalidation, only eviction.
//
// The package is a port with three adapters in the frameless cache/contracts
// style: Memory (an LRU memo.Cache, like every in-process memo), Disk (one
// checksummed file per key under a sharded layout, atomic rename writes,
// crash-safe reads), and Remote (a thin HTTP client against the reference
// Handler, the seam for a shared networked store). Layered composes them
// into a tiered hierarchy. Every adapter is held to one behavioral contract
// suite (contracts subpackage).
//
// Values are opaque bytes; encoding/decoding of FPTrace records belongs to
// the caller (internal/testbench), which also owns single-flight per key —
// the in-process fingerprint memo claim spans every tier, so a stampede on
// one key performs at most one store lookup and one simulation.
package resultstore

import (
	"context"
	"errors"
	"fmt"
)

// Key addresses one fingerprint trace by content. Both halves are lowercase
// hex digests: DesignHash identifies the compiled design (canonical source
// + top module), ScheduleHash the compiled stimulus schedule plus the
// interface it binds. Identical keys imply bit-identical traces.
type Key struct {
	DesignHash   string
	ScheduleHash string
}

// ErrInvalidKey rejects keys that are empty or not plain lowercase hex.
// Adapters validate before touching their backing medium, so a malformed
// key can never escape into a file path or URL.
var ErrInvalidKey = errors.New("resultstore: invalid key")

// Validate checks both hash components: non-empty, lowercase hex only,
// and bounded length (a SHA-256 digest is 64 characters; 128 leaves room
// for longer digests without admitting unbounded path components).
func (k Key) Validate() error {
	for _, h := range [2]string{k.DesignHash, k.ScheduleHash} {
		if len(h) < 4 || len(h) > 128 {
			return fmt.Errorf("%w: hash length %d", ErrInvalidKey, len(h))
		}
		for i := 0; i < len(h); i++ {
			c := h[i]
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				return fmt.Errorf("%w: non-hex byte %q", ErrInvalidKey, c)
			}
		}
	}
	return nil
}

// Store is the persistence port. Implementations must be safe for
// concurrent use and must never return a value that fails their own
// integrity checks: a torn or corrupt entry reads as a miss, not as data.
type Store interface {
	// Get returns the stored value and true, or (nil, false, nil) on a
	// miss. The returned slice is the caller's to keep.
	Get(ctx context.Context, k Key) ([]byte, bool, error)
	// Put stores value under k, replacing any existing entry atomically.
	// A cancelled Put must leave either the old entry or no entry —
	// never a partial record.
	Put(ctx context.Context, k Key, value []byte) error
	// Delete removes k; deleting a missing key is not an error.
	Delete(ctx context.Context, k Key) error
	// Len reports the number of stored entries.
	Len() (int, error)
	// Close releases adapter resources. The store is unusable afterwards.
	Close() error
}
