// Package sim implements a four-state (0/1/X/Z) event-driven simulator for
// the supported Verilog subset. It plays the role Icarus Verilog plays in the
// paper: executing candidate modules under generated testbenches and
// producing output traces.
//
// Value is the four-state bit-vector type. Bit i of a value is encoded by
// two planes: xz=0 means a known bit whose value is val; xz=1 with val=0 is
// X and with val=1 is Z.
package sim

import "strconv"

// Value is an arbitrary-width four-state logic vector. Values are immutable
// by convention: operations return new Values.
type Value struct {
	width int
	val   []uint64
	xz    []uint64
}

func words(width int) int {
	if width <= 0 {
		return 1
	}
	return (width + 63) / 64
}

// mask clears storage bits above the width.
func (v Value) mask() Value {
	if v.width <= 0 {
		return v
	}
	rem := v.width % 64
	last := (v.width - 1) / 64
	for i := last + 1; i < len(v.val); i++ {
		v.val[i], v.xz[i] = 0, 0
	}
	if rem != 0 {
		m := uint64(1)<<uint(rem) - 1
		v.val[last] &= m
		v.xz[last] &= m
	}
	return v
}

// NewKnown returns a width-bit value holding the low bits of x (known).
func NewKnown(width int, x uint64) Value {
	v := Value{width: width, val: make([]uint64, words(width)), xz: make([]uint64, words(width))}
	v.val[0] = x
	return v.mask()
}

// NewX returns a width-bit all-X value.
func NewX(width int) Value {
	v := Value{width: width, val: make([]uint64, words(width)), xz: make([]uint64, words(width))}
	for i := range v.xz {
		v.xz[i] = ^uint64(0)
	}
	return v.mask()
}

// NewFromPlanes builds a value from copied val/xz planes.
func NewFromPlanes(width int, val, xz []uint64) Value {
	n := words(width)
	v := Value{width: width, val: make([]uint64, n), xz: make([]uint64, n)}
	copy(v.val, val)
	copy(v.xz, xz)
	return v.mask()
}

// ValueView wraps existing planes as a Value WITHOUT copying. The planes
// must hold words(width) properly masked words (no set bits at or above
// width) and must not be mutated while the view is live — the view aliases
// them. This is the zero-allocation bridge the compiled testbench schedule
// uses to drive stimulus words straight from its flat buffers.
func ValueView(width int, val, xz []uint64) Value {
	n := words(width)
	return Value{width: width, val: val[:n], xz: xz[:n]}
}

// CopyPlanes copies the value's words(Width()) storage words into the
// destination slices, which must be at least that long. It is the inverse of
// ValueView: testbench schedules flatten generated stimulus values into
// reusable plane buffers with it.
func (v Value) CopyPlanes(dstVal, dstXZ []uint64) {
	n := words(v.width)
	copy(dstVal[:n], v.val)
	copy(dstXZ[:n], v.xz)
}

// PlaneWords returns words(Width()): the number of storage words CopyPlanes
// transfers and ValueView expects.
func (v Value) PlaneWords() int { return words(v.width) }

// Width returns the bit width.
func (v Value) Width() int { return v.width }

// IsZero reports whether the value is fully known and equal to zero.
func (v Value) IsZero() bool {
	for i := range v.val {
		if v.val[i] != 0 || v.xz[i] != 0 {
			return false
		}
	}
	return true
}

// HasXZ reports whether any bit is X or Z.
func (v Value) HasXZ() bool {
	for _, w := range v.xz {
		if w != 0 {
			return true
		}
	}
	return false
}

// Bit returns the state of bit i as one of '0','1','x','z'. Out-of-range
// bits read as 0.
func (v Value) Bit(i int) byte {
	if i < 0 || i >= v.width {
		return '0'
	}
	w, b := i/64, uint(i)%64
	valBit := v.val[w]>>b&1 != 0
	xzBit := v.xz[w]>>b&1 != 0
	switch {
	case !xzBit && !valBit:
		return '0'
	case !xzBit && valBit:
		return '1'
	case xzBit && !valBit:
		return 'x'
	default:
		return 'z'
	}
}

// setBit sets bit i to the given state character.
func (v Value) setBit(i int, state byte) {
	if i < 0 || i >= v.width {
		return
	}
	w, b := i/64, uint(i)%64
	vm, xm := uint64(0), uint64(0)
	switch state {
	case '1':
		vm = 1
	case 'x':
		xm = 1
	case 'z':
		vm, xm = 1, 1
	}
	v.val[w] = v.val[w]&^(1<<b) | vm<<b
	v.xz[w] = v.xz[w]&^(1<<b) | xm<<b
}

// Uint64 returns the value as a uint64 if it is fully known and fits.
func (v Value) Uint64() (uint64, bool) {
	if v.HasXZ() {
		return 0, false
	}
	for i := 1; i < len(v.val); i++ {
		if v.val[i] != 0 {
			return 0, false
		}
	}
	return v.val[0], true
}

// Resize returns the value zero-extended or truncated to width bits. X and Z
// bits are preserved where they fit.
func (v Value) Resize(width int) Value {
	if width == v.width {
		return v
	}
	out := Value{width: width, val: make([]uint64, words(width)), xz: make([]uint64, words(width))}
	copy(out.val, v.val)
	copy(out.xz, v.xz)
	return out.mask()
}

// Equal reports exact four-state equality (same width contents; widths may
// differ if the extra bits are zero).
func (v Value) Equal(o Value) bool {
	maxw := len(v.val)
	if len(o.val) > maxw {
		maxw = len(o.val)
	}
	get := func(s []uint64, i int) uint64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	for i := 0; i < maxw; i++ {
		if get(v.val, i) != get(o.val, i) || get(v.xz, i) != get(o.xz, i) {
			return false
		}
	}
	return true
}

// String renders the value as a binary literal, e.g. "4'b10x1".
func (v Value) String() string {
	return string(v.appendBits(make([]byte, 0, 12+v.width)))
}

// appendBits appends the String form of v to dst.
func (v Value) appendBits(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(v.width), 10)
	dst = append(dst, '\'', 'b')
	for i := v.width - 1; i >= 0; i-- {
		dst = append(dst, v.Bit(i))
	}
	return dst
}

// Bool3 is the three-valued truth of the value: (true, known) if any bit is
// 1; (false, known) if all bits are known 0; unknown otherwise.
func (v Value) Bool3() (truth, known bool) {
	anyOne := false
	anyXZ := false
	for i := range v.val {
		one := v.val[i] &^ v.xz[i]
		if one != 0 {
			anyOne = true
		}
		if v.xz[i] != 0 {
			anyXZ = true
		}
	}
	if anyOne {
		return true, true
	}
	if anyXZ {
		return false, false
	}
	return false, true
}

// --- Bitwise operations ------------------------------------------------------

// is0/is1 planes: a bit is known-0 when both planes are clear; known-1 when
// val is set and xz clear.

// And returns the bitwise AND with four-state semantics.
func And(a, b Value) Value {
	w := maxInt(a.width, b.width)
	a, b = a.Resize(w), b.Resize(w)
	out := Value{width: w, val: make([]uint64, words(w)), xz: make([]uint64, words(w))}
	for i := range out.val {
		a0 := ^a.val[i] & ^a.xz[i]
		a1 := a.val[i] & ^a.xz[i]
		b0 := ^b.val[i] & ^b.xz[i]
		b1 := b.val[i] & ^b.xz[i]
		one := a1 & b1
		zero := a0 | b0
		out.val[i] = one
		out.xz[i] = ^(one | zero)
	}
	return out.mask()
}

// Or returns the bitwise OR with four-state semantics.
func Or(a, b Value) Value {
	w := maxInt(a.width, b.width)
	a, b = a.Resize(w), b.Resize(w)
	out := Value{width: w, val: make([]uint64, words(w)), xz: make([]uint64, words(w))}
	for i := range out.val {
		a0 := ^a.val[i] & ^a.xz[i]
		a1 := a.val[i] & ^a.xz[i]
		b0 := ^b.val[i] & ^b.xz[i]
		b1 := b.val[i] & ^b.xz[i]
		one := a1 | b1
		zero := a0 & b0
		out.val[i] = one
		out.xz[i] = ^(one | zero)
	}
	return out.mask()
}

// Xor returns the bitwise XOR with four-state semantics.
func Xor(a, b Value) Value {
	w := maxInt(a.width, b.width)
	a, b = a.Resize(w), b.Resize(w)
	out := Value{width: w, val: make([]uint64, words(w)), xz: make([]uint64, words(w))}
	for i := range out.val {
		unk := a.xz[i] | b.xz[i]
		out.val[i] = (a.val[i] ^ b.val[i]) &^ unk
		out.xz[i] = unk
	}
	return out.mask()
}

// Xnor returns the bitwise XNOR with four-state semantics.
func Xnor(a, b Value) Value {
	return Not(Xor(a, b))
}

// Not returns the bitwise complement; X/Z bits stay X.
func Not(a Value) Value {
	out := Value{width: a.width, val: make([]uint64, len(a.val)), xz: make([]uint64, len(a.xz))}
	for i := range out.val {
		out.val[i] = ^a.val[i] &^ a.xz[i]
		out.xz[i] = a.xz[i]
	}
	return out.mask()
}

// --- Arithmetic ----------------------------------------------------------------

// Add returns a+b at width max(wa,wb); all-X if any operand bit is X/Z.
func Add(a, b Value) Value {
	w := maxInt(a.width, b.width)
	if a.HasXZ() || b.HasXZ() {
		return NewX(w)
	}
	a, b = a.Resize(w), b.Resize(w)
	out := Value{width: w, val: make([]uint64, words(w)), xz: make([]uint64, words(w))}
	var carry uint64
	for i := range out.val {
		s := a.val[i] + b.val[i]
		c1 := boolToU64(s < a.val[i])
		s2 := s + carry
		c2 := boolToU64(s2 < s)
		out.val[i] = s2
		carry = c1 | c2
	}
	return out.mask()
}

// Sub returns a-b at width max(wa,wb); all-X if any operand bit is X/Z.
func Sub(a, b Value) Value {
	w := maxInt(a.width, b.width)
	if a.HasXZ() || b.HasXZ() {
		return NewX(w)
	}
	a, b = a.Resize(w), b.Resize(w)
	out := Value{width: w, val: make([]uint64, words(w)), xz: make([]uint64, words(w))}
	var borrow uint64
	for i := range out.val {
		d := a.val[i] - b.val[i]
		b1 := boolToU64(a.val[i] < b.val[i])
		d2 := d - borrow
		b2 := boolToU64(d < borrow)
		out.val[i] = d2
		borrow = b1 | b2
	}
	return out.mask()
}

// Neg returns two's-complement negation.
func Neg(a Value) Value {
	return Sub(NewKnown(a.width, 0), a)
}

// Mul returns a*b at width max(wa,wb) (truncating); all-X on X/Z input.
func Mul(a, b Value) Value {
	w := maxInt(a.width, b.width)
	if a.HasXZ() || b.HasXZ() {
		return NewX(w)
	}
	a, b = a.Resize(w), b.Resize(w)
	n := words(w)
	out := Value{width: w, val: make([]uint64, n), xz: make([]uint64, n)}
	// Schoolbook 32-bit limb multiply to keep carries manageable.
	al := limbs32(a.val, n)
	bl := limbs32(b.val, n)
	res := make([]uint64, 2*n*2)
	for i := range al {
		var carry uint64
		for j := range bl {
			if i+j >= len(res) {
				break
			}
			cur := res[i+j] + al[i]*bl[j] + carry
			res[i+j] = cur & 0xFFFFFFFF
			carry = cur >> 32
		}
		if i+len(bl) < len(res) {
			res[i+len(bl)] += carry
		}
	}
	for i := 0; i < n; i++ {
		out.val[i] = res[2*i] | res[2*i+1]<<32
	}
	return out.mask()
}

func limbs32(v []uint64, n int) []uint64 {
	out := make([]uint64, 2*n)
	for i := 0; i < n; i++ {
		out[2*i] = v[i] & 0xFFFFFFFF
		out[2*i+1] = v[i] >> 32
	}
	return out
}

// Div returns a/b (unsigned); all-X on X/Z input or division by zero.
// Only single-word divisors/dividends take the fast path; multi-word uses
// long division on bits.
func Div(a, b Value) Value {
	w := maxInt(a.width, b.width)
	if a.HasXZ() || b.HasXZ() || b.IsZero() {
		return NewX(w)
	}
	if av, ok := a.Uint64(); ok {
		if bv, ok2 := b.Uint64(); ok2 {
			return NewKnown(w, av/bv)
		}
	}
	q, _ := divmodBits(a.Resize(w), b.Resize(w))
	return q
}

// Mod returns a%b (unsigned); all-X on X/Z input or division by zero.
func Mod(a, b Value) Value {
	w := maxInt(a.width, b.width)
	if a.HasXZ() || b.HasXZ() || b.IsZero() {
		return NewX(w)
	}
	if av, ok := a.Uint64(); ok {
		if bv, ok2 := b.Uint64(); ok2 {
			return NewKnown(w, av%bv)
		}
	}
	_, r := divmodBits(a.Resize(w), b.Resize(w))
	return r
}

// divmodBits is bit-serial restoring division for multi-word operands.
func divmodBits(a, b Value) (q, r Value) {
	w := a.width
	q = NewKnown(w, 0)
	r = NewKnown(w, 0)
	for i := w - 1; i >= 0; i-- {
		r = Shl(r, NewKnown(32, 1))
		if a.Bit(i) == '1' {
			r.val[0] |= 1
		}
		if cmpKnown(r, b) >= 0 {
			r = Sub(r, b)
			q.val[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return q, r
}

// cmpKnown compares fully known values as unsigned integers: -1, 0, +1.
func cmpKnown(a, b Value) int {
	n := maxInt(len(a.val), len(b.val))
	get := func(s []uint64, i int) uint64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	for i := n - 1; i >= 0; i-- {
		av, bv := get(a.val, i), get(b.val, i)
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// --- Comparison ------------------------------------------------------------------

// Eq returns the 1-bit logical equality: X if any operand bit is unknown.
func Eq(a, b Value) Value {
	if a.HasXZ() || b.HasXZ() {
		return NewX(1)
	}
	if cmpKnown(a, b) == 0 {
		return NewKnown(1, 1)
	}
	return NewKnown(1, 0)
}

// Neq is the negation of Eq.
func Neq(a, b Value) Value { return Not(Eq(a, b)) }

// CaseEq returns 1-bit exact four-state equality (===).
func CaseEq(a, b Value) Value {
	w := maxInt(a.width, b.width)
	if a.Resize(w).Equal(b.Resize(w)) {
		return NewKnown(1, 1)
	}
	return NewKnown(1, 0)
}

// CaseNeq is the negation of CaseEq (!==).
func CaseNeq(a, b Value) Value { return Not(CaseEq(a, b)) }

// Lt returns the 1-bit unsigned less-than; X on unknown operands.
func Lt(a, b Value) Value { return cmpRel(a, b, func(c int) bool { return c < 0 }) }

// Leq returns the 1-bit unsigned less-or-equal; X on unknown operands.
func Leq(a, b Value) Value { return cmpRel(a, b, func(c int) bool { return c <= 0 }) }

// Gt returns the 1-bit unsigned greater-than; X on unknown operands.
func Gt(a, b Value) Value { return cmpRel(a, b, func(c int) bool { return c > 0 }) }

// Geq returns the 1-bit unsigned greater-or-equal; X on unknown operands.
func Geq(a, b Value) Value { return cmpRel(a, b, func(c int) bool { return c >= 0 }) }

func cmpRel(a, b Value, ok func(int) bool) Value {
	if a.HasXZ() || b.HasXZ() {
		return NewX(1)
	}
	if ok(cmpKnown(a, b)) {
		return NewKnown(1, 1)
	}
	return NewKnown(1, 0)
}

// --- Shifts -----------------------------------------------------------------------

// Shl shifts a left by the amount in b; result keeps a's width. X amount
// yields all-X.
func Shl(a, b Value) Value {
	amt, ok := b.Uint64()
	if !ok {
		return NewX(a.width)
	}
	if amt >= uint64(a.width) {
		return NewKnown(a.width, 0)
	}
	return shiftLeft(a, int(amt))
}

// Shr shifts a right logically by the amount in b; result keeps a's width.
func Shr(a, b Value) Value {
	amt, ok := b.Uint64()
	if !ok {
		return NewX(a.width)
	}
	if amt >= uint64(a.width) {
		return NewKnown(a.width, 0)
	}
	return shiftRight(a, int(amt), false)
}

// AShr shifts right arithmetically (sign-filling with the MSB).
func AShr(a, b Value) Value {
	amt, ok := b.Uint64()
	if !ok {
		return NewX(a.width)
	}
	if amt >= uint64(a.width) {
		if a.Bit(a.width-1) == '1' {
			return Not(NewKnown(a.width, 0))
		}
		return NewKnown(a.width, 0)
	}
	return shiftRight(a, int(amt), true)
}

func shiftLeft(a Value, amt int) Value {
	out := NewKnown(a.width, 0)
	for i := a.width - 1; i >= amt; i-- {
		out.setBit(i, a.Bit(i-amt))
	}
	return out
}

func shiftRight(a Value, amt int, arith bool) Value {
	out := NewKnown(a.width, 0)
	fill := byte('0')
	if arith {
		fill = a.Bit(a.width - 1)
	}
	for i := 0; i < a.width; i++ {
		src := i + amt
		if src < a.width {
			out.setBit(i, a.Bit(src))
		} else {
			out.setBit(i, fill)
		}
	}
	return out
}

// --- Reductions ---------------------------------------------------------------------

// RedAnd reduces with AND: 0 if any known-0 bit, 1 if all bits known-1,
// else X.
func RedAnd(a Value) Value {
	any0, anyXZ := false, false
	for i := 0; i < a.width; i++ {
		switch a.Bit(i) {
		case '0':
			any0 = true
		case 'x', 'z':
			anyXZ = true
		}
	}
	switch {
	case any0:
		return NewKnown(1, 0)
	case anyXZ:
		return NewX(1)
	default:
		return NewKnown(1, 1)
	}
}

// RedOr reduces with OR: 1 if any known-1 bit, 0 if all bits known-0, else X.
func RedOr(a Value) Value {
	any1, anyXZ := false, false
	for i := 0; i < a.width; i++ {
		switch a.Bit(i) {
		case '1':
			any1 = true
		case 'x', 'z':
			anyXZ = true
		}
	}
	switch {
	case any1:
		return NewKnown(1, 1)
	case anyXZ:
		return NewX(1)
	default:
		return NewKnown(1, 0)
	}
}

// RedXor reduces with XOR; X if any bit unknown.
func RedXor(a Value) Value {
	parity := uint64(0)
	for i := 0; i < a.width; i++ {
		switch a.Bit(i) {
		case '1':
			parity ^= 1
		case 'x', 'z':
			return NewX(1)
		}
	}
	return NewKnown(1, parity)
}

// --- Structure ----------------------------------------------------------------------

// ConcatVals concatenates parts, first part becoming the most significant.
func ConcatVals(parts []Value) Value {
	total := 0
	for _, p := range parts {
		total += p.width
	}
	out := NewKnown(total, 0)
	pos := total
	for _, p := range parts {
		pos -= p.width
		for i := 0; i < p.width; i++ {
			out.setBit(pos+i, p.Bit(i))
		}
	}
	return out
}

// ReplVal replicates v count times.
func ReplVal(count int, v Value) Value {
	if count <= 0 {
		return NewKnown(0, 0)
	}
	parts := make([]Value, count)
	for i := range parts {
		parts[i] = v
	}
	return ConcatVals(parts)
}

// SliceBits extracts width bits starting at bit lo (LSB-relative). Bits read
// outside the source are X (matching out-of-range select semantics).
func (v Value) SliceBits(lo, width int) Value {
	out := NewKnown(width, 0)
	for i := 0; i < width; i++ {
		src := lo + i
		if src < 0 || src >= v.width {
			out.setBit(i, 'x')
		} else {
			out.setBit(i, v.Bit(src))
		}
	}
	return out
}

// WriteBits returns a copy of v with width bits starting at lo replaced by
// the low bits of src. Writes outside the vector are dropped.
func (v Value) WriteBits(lo int, src Value) Value {
	out := NewFromPlanes(v.width, v.val, v.xz)
	for i := 0; i < src.width; i++ {
		dst := lo + i
		if dst < 0 || dst >= v.width {
			continue
		}
		out.setBit(dst, src.Bit(i))
	}
	return out
}

// CasezMatch reports whether subject matches label treating Z/? bits in
// either as wildcards (casez), or additionally X bits (casex).
func CasezMatch(subject, label Value, alsoX bool) bool {
	w := maxInt(subject.width, label.width)
	s, l := subject.Resize(w), label.Resize(w)
	for i := 0; i < w; i++ {
		sb, lb := s.Bit(i), l.Bit(i)
		if sb == 'z' || lb == 'z' {
			continue
		}
		if alsoX && (sb == 'x' || lb == 'x') {
			continue
		}
		if sb != lb {
			return false
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
