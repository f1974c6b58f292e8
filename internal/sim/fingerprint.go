package sim

import "strconv"

// Inline FNV-1a, matching hash/fnv's 64-bit variant byte for byte. The
// streaming fingerprint path folds output bits into a running hash without
// materializing the printed string, so the hasher itself must not allocate
// either (hash/fnv boxes a new hasher per call).
const (
	// FNVOffset64 is the FNV-1a 64-bit offset basis — the seed callers pass
	// for the first HashOutputH call of a digest.
	FNVOffset64 uint64 = 0xcbf29ce484222325
	// FNVPrime64 is the matching multiplier. Exported alongside the offset
	// so callers folding their own bytes into the same digest (testbench's
	// fingerprint path) share one definition instead of a copy that must
	// stay byte-identical.
	FNVPrime64 uint64 = 0x100000001b3
)

// HashOutputH folds the binary rendering of the top-level net behind handle
// idx (see OutputHandle) at the given width into a running FNV-1a hash and
// returns the updated hash. The bytes hashed are exactly the bytes
// AppendOutput would append (equivalently, Output(name).Resize(width).String()):
// the decimal width, "'b", then one character per bit MSB-first with bits
// beyond the net width reading as known 0. Two outputs therefore collide
// exactly when their printed strings are equal, which makes streaming
// fingerprints interchangeable with printed-trace fingerprints. It is the
// streaming fingerprint hot path and allocates nothing.
func (en *Engine) HashOutputH(h uint64, idx int, width int) uint64 {
	cn := &en.d.nets[idx]
	sv := en.val[cn.off : cn.off+cn.nw]
	sx := en.xz[cn.off : cn.off+cn.nw]
	var wbuf [20]byte
	for _, b := range strconv.AppendInt(wbuf[:0], int64(width), 10) {
		h = (h ^ uint64(b)) * FNVPrime64
	}
	h = (h ^ '\'') * FNVPrime64
	h = (h ^ 'b') * FNVPrime64
	for i := width - 1; i >= 0; i-- {
		var b uint64
		switch kbit(sv, sx, cn.width, i) {
		case 0:
			b = '0'
		case 1:
			b = '1'
		case 2:
			b = 'x'
		default:
			b = 'z'
		}
		h = (h ^ b) * FNVPrime64
	}
	return h
}
