package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/eval"
)

// maxSubmitBytes bounds a POST /jobs body. The largest job the daemon
// itself would build is MaxSamples (200) candidates of tens of KB each, so
// 8 MiB admits every legitimate pool while refusing hostile bodies before
// they are buffered.
const maxSubmitBytes = 8 << 20

// errBodyTooLarge marks a body refused with 413.
var errBodyTooLarge = errors.New("request body too large")

// submitPreallocMax bounds the buffer a declared Content-Length buys before
// a byte of the body has arrived. The body may take up to SubmitBodyTimeout
// to arrive, so a larger declaration must not pin its full size meanwhile.
const submitPreallocMax = 1 << 20

// bufPool recycles the byte buffers of the request path: submit bodies of
// declared length up to submitPreallocMax, and the buffers that encode
// responses and stream events. It holds *[]byte, so a Put allocates
// nothing.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

// submitBody is one read POST /jobs body. A body of declared length up to
// submitPreallocMax sits in a bufPool buffer; release returns the buffer,
// and nothing may alias bytes after that.
type submitBody struct {
	bytes  []byte
	pooled *[]byte // the buffer bytes was read into, or nil
}

// release returns the body's buffer to bufPool, if it came from there.
func (b submitBody) release() {
	if b.pooled != nil {
		putBuf(b.pooled)
	}
}

// readSubmitBody reads a submit body once, into one buffer, never past
// maxSubmitBytes. A declared Content-Length over the limit is refused before
// any read or allocation; one up to submitPreallocMax is read with
// io.ReadFull into a pooled buffer of at least that size. A larger declared
// body, or one of unknown length (through http.MaxBytesReader), is read into
// a buffer that grows as bytes arrive, never past the declared length or the
// limit. The whole read must finish within submitBodyTimeout. The deadline
// is cleared once the body is read. After a failed read it stays, so
// net/http closes the connection instead of draining the rest of a stalled
// body.
func readSubmitBody(w http.ResponseWriter, r *http.Request) (_ submitBody, err error) {
	rc := http.NewResponseController(w)
	if rc.SetReadDeadline(time.Now().Add(submitBodyTimeout)) == nil {
		defer func() {
			if err == nil {
				rc.SetReadDeadline(time.Time{})
			}
		}()
	}
	n := r.ContentLength
	if n > maxSubmitBytes {
		return submitBody{}, fmt.Errorf("%w: %d bytes declared, limit %d", errBodyTooLarge, n, maxSubmitBytes)
	}
	if n >= 0 && n <= submitPreallocMax {
		pooled := getBuf()
		if int64(cap(*pooled)) < n {
			*pooled = make([]byte, n)
		}
		buf := (*pooled)[:n]
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			putBuf(pooled)
			return submitBody{}, fmt.Errorf("read body: %w", err)
		}
		return submitBody{bytes: buf, pooled: pooled}, nil
	}
	body, limit := r.Body, int(n)
	if n < 0 {
		// The one spare byte lets MaxBytesReader see an over-limit body at
		// exactly the limit.
		body, limit = http.MaxBytesReader(w, r.Body, maxSubmitBytes), maxSubmitBytes+1
	}
	buf := make([]byte, 0, 4096)
	for n < 0 || len(buf) < limit {
		if len(buf) == cap(buf) {
			next := make([]byte, len(buf), min(2*cap(buf), limit))
			copy(next, buf)
			buf = next
		}
		m, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		var tooBig *http.MaxBytesError
		switch {
		case err == io.EOF && n >= 0 && len(buf) < limit:
			return submitBody{}, fmt.Errorf("read body: %w", io.ErrUnexpectedEOF)
		case err == io.EOF:
			return submitBody{bytes: buf}, nil
		case errors.As(err, &tooBig):
			return submitBody{}, fmt.Errorf("%w: over %d bytes", errBodyTooLarge, tooBig.Limit)
		case err != nil:
			return submitBody{}, fmt.Errorf("read body: %w", err)
		}
	}
	return submitBody{bytes: buf}, nil
}

// decodeSubmit parses a POST /jobs body in one pass. It accepts exactly one
// JSON object, optionally surrounded by whitespace, whose keys are the
// SubmitRequest fields' exact JSON names, each at most once; a null value
// leaves its field absent. Integers follow the RFC 8259 integer grammar and
// must fit their field; strings take the RFC 8259 escapes and must be valid
// UTF-8 with no lone surrogates. Everything else is an error naming the
// problem and its byte offset. Whatever it accepts, encoding/json decodes to
// the same SubmitRequest (FuzzDecodeSubmit holds it to that).
//
// A candidate equal to a text resident in the front-end memo shares the
// memo's string (eval.InternText); only the others are allocated. No string
// of the result aliases data.
func decodeSubmit(data []byte) (SubmitRequest, error) {
	return decodeSubmitIntern(data, eval.InternText)
}

// decodeSubmitIntern is decodeSubmit with its interning lookup given:
// intern returns a resident string equal to its bytes, or false. A nil
// intern allocates every candidate.
func decodeSubmitIntern(data []byte, intern func([]byte) (string, bool)) (SubmitRequest, error) {
	d := decoderPool.Get().(*submitDecoder)
	d.data, d.pos, d.intern = data, 0, intern
	var req SubmitRequest
	err := d.object(&req)
	d.reset()
	decoderPool.Put(d)
	if err != nil {
		return SubmitRequest{}, err
	}
	return req, nil
}

// decoderPool recycles submitDecoders with their scratch buffers.
var decoderPool = sync.Pool{New: func() any { return new(submitDecoder) }}

// submitDecoder is one decode's cursor plus the scratch space a pooled
// decoder keeps between decodes: unescaped holds the decoding of the last
// string that had escapes, and cands the candidates decoded so far.
type submitDecoder struct {
	data   []byte
	pos    int
	intern func([]byte) (string, bool)

	unescaped []byte
	cands     []string
}

// reset drops what a finished decode references, keeping the scratch
// buffers' capacity.
func (d *submitDecoder) reset() {
	clear(d.cands)
	d.data, d.intern, d.cands = nil, nil, d.cands[:0]
}

func (d *submitDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *submitDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// expect consumes c after optional whitespace.
func (d *submitDecoder) expect(c byte, what string) error {
	if d.peek() != c {
		return d.unexpected(what)
	}
	d.pos++
	return nil
}

// unexpected reports the byte at the cursor where what was wanted.
func (d *submitDecoder) unexpected(what string) error {
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of body, want %s", what)
	}
	return d.errorf("unexpected %q, want %s", d.data[d.pos], what)
}

// peek returns the next non-space byte without consuming it (0 at EOF).
func (d *submitDecoder) peek() byte {
	d.skipSpace()
	if d.pos >= len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

func (d *submitDecoder) object(req *SubmitRequest) error {
	if len(d.data) == 0 {
		return errors.New("empty body")
	}
	if err := d.expect('{', "'{'"); err != nil {
		return err
	}
	var seen [len(submitKeys)]bool
	if d.peek() == '}' {
		d.pos++
	} else {
		for {
			if err := d.member(req, &seen); err != nil {
				return err
			}
			if d.peek() == '}' {
				d.pos++
				break
			}
			if err := d.expect(',', "',' or '}'"); err != nil {
				return err
			}
		}
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return d.errorf("trailing data after the object")
	}
	return nil
}

// submitKeys are the accepted keys, in SubmitRequest field order.
var submitKeys = [...]string{"id", "task_id", "candidates", "samples", "seed", "model"}

func (d *submitDecoder) member(req *SubmitRequest, seen *[len(submitKeys)]bool) error {
	if err := d.expect('"', "a key"); err != nil {
		return err
	}
	// Keys are matched undecoded: no accepted key contains an escape, so
	// any key that does is unknown.
	start := d.pos - 1
	end := closingQuote(d.data, d.pos)
	if end < 0 {
		d.pos = start
		return d.errorf("unterminated key")
	}
	key := d.data[d.pos:end]
	d.pos = end + 1
	field := -1
	for i, k := range submitKeys {
		if string(key) == k {
			field = i
			break
		}
	}
	if field < 0 {
		d.pos = start
		return d.errorf("unknown key %q (keys are %s)", key, strings.Join(submitKeys[:], ", "))
	}
	if seen[field] {
		d.pos = start
		return d.errorf("duplicate key %q", key)
	}
	seen[field] = true
	if err := d.expect(':', "':'"); err != nil {
		return err
	}
	if d.null() {
		return nil
	}
	var n int64
	var err error
	switch name := submitKeys[field]; name {
	case "id":
		req.ID, err = d.str(name)
	case "task_id":
		req.TaskID, err = d.str(name)
	case "candidates":
		req.Candidates, err = d.strs(name)
	case "samples":
		n, err = d.integer(name, strconv.IntSize)
		req.Samples = int(n)
	case "seed":
		req.Seed, err = d.integer(name, 64)
	case "model":
		req.Model, err = d.str(name)
	}
	return err
}

// null consumes a null literal after optional whitespace.
func (d *submitDecoder) null() bool {
	d.skipSpace()
	if len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// strs decodes the candidates array into d.cands, interning each, and
// returns an exact-size copy.
func (d *submitDecoder) strs(name string) ([]string, error) {
	if d.peek() != '[' {
		return nil, d.unexpected(name + " as an array of strings")
	}
	d.pos++
	if d.peek() == ']' {
		d.pos++
		return []string{}, nil
	}
	for {
		b, err := d.strBytes(name)
		if err != nil {
			return nil, err
		}
		s, ok := "", false
		if d.intern != nil {
			s, ok = d.intern(b)
		}
		if !ok {
			s = string(b)
		}
		d.cands = append(d.cands, s)
		if d.peek() == ']' {
			d.pos++
			return slices.Clone(d.cands), nil
		}
		if err := d.expect(',', "',' or ']'"); err != nil {
			return nil, err
		}
	}
}

// str decodes one string value into a new string.
func (d *submitDecoder) str(name string) (string, error) {
	b, err := d.strBytes(name)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// strBytes decodes one string value and returns its bytes: the body's own
// bytes when the string has no escapes, else d.unescaped, valid until the
// next call. It finds the closing quote and rejects control bytes and
// invalid UTF-8; then it returns an escape-free string as it is, or copies
// the runs between escapes in bulk into d.unescaped, decoding each escape
// straight into it.
func (d *submitDecoder) strBytes(name string) ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.unexpected(name + " as a string")
	}
	d.pos++
	start := d.pos
	end := closingQuote(d.data, start)
	if end < 0 {
		d.pos = start - 1
		return nil, d.errorf("%s: unterminated string", name)
	}
	raw := d.data[start:end]
	if i := controlAt(raw); i >= 0 {
		d.pos = start + i
		return nil, d.errorf("%s: raw control byte %#02x in string", name, raw[i])
	}
	// Escapes are ASCII, so they never split a multi-byte sequence: the raw
	// bytes are valid UTF-8 exactly when every run between escapes is.
	if !utf8.Valid(raw) {
		d.pos = start - 1
		return nil, d.errorf("%s: invalid UTF-8 in string", name)
	}
	d.pos = end + 1
	out := d.unescaped[:0]
	for off := 0; ; {
		i := bytes.IndexByte(raw[off:], '\\')
		if i < 0 && off == 0 {
			return raw, nil
		}
		if i < 0 {
			out = append(out, raw[off:]...)
			d.unescaped = out
			return out, nil
		}
		out = append(out, raw[off:off+i]...)
		off += i
		var n int
		var err error
		if out, n, err = appendUnescaped(out, raw[off:]); err != nil {
			d.pos = start + off
			return nil, d.errorf("%s: %v", name, err)
		}
		off += n
	}
}

// closingQuote returns the index of the quote closing the string whose
// body starts at data[start], or -1: the first quote not escaped by an odd
// run of backslashes.
func closingQuote(data []byte, start int) int {
	for i := start; ; i++ {
		j := bytes.IndexByte(data[i:], '"')
		if j < 0 {
			return -1
		}
		i += j
		k := i
		for k > start && data[k-1] == '\\' {
			k--
		}
		if (i-k)%2 == 0 {
			return i
		}
	}
}

// controlAt returns the index of the first byte below 0x20 in s, or -1,
// testing eight bytes at a time.
func controlAt(s []byte) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := binary.LittleEndian.Uint64(s[i:])
		if (x-0x20*ones)&^x&highs != 0 {
			break
		}
	}
	for ; i < len(s); i++ {
		if s[i] < 0x20 {
			return i
		}
	}
	return -1
}

// appendUnescaped appends the decoding of the escape sequence at the start
// of esc (which begins with a backslash) to dst and returns its length in
// bytes.
func appendUnescaped(dst, esc []byte) ([]byte, int, error) {
	if len(esc) < 2 {
		return dst, 0, errors.New("truncated escape")
	}
	switch c := esc[1]; c {
	case '"', '\\', '/':
		dst = append(dst, c)
	case 'b':
		dst = append(dst, '\b')
	case 'f':
		dst = append(dst, '\f')
	case 'n':
		dst = append(dst, '\n')
	case 'r':
		dst = append(dst, '\r')
	case 't':
		dst = append(dst, '\t')
	case 'u':
		r, ok := hex4(esc[2:])
		if !ok {
			return dst, 0, errors.New("malformed \\u escape")
		}
		if !utf16.IsSurrogate(r) {
			return utf8.AppendRune(dst, r), 6, nil
		}
		if r < 0xdc00 && len(esc) >= 12 && esc[6] == '\\' && esc[7] == 'u' {
			if lo, ok := hex4(esc[8:]); ok && lo >= 0xdc00 && lo <= 0xdfff {
				return utf8.AppendRune(dst, utf16.DecodeRune(r, lo)), 12, nil
			}
		}
		return dst, 0, fmt.Errorf("lone surrogate \\u%04x", r)
	default:
		return dst, 0, fmt.Errorf("invalid escape %q", esc[:2])
	}
	return dst, 2, nil
}

// hex4 parses the four hex digits at the start of h.
func hex4(h []byte) (rune, bool) {
	if len(h) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range h[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// integer parses an RFC 8259 integer (no fraction, no exponent) that fits
// a signed integer of the given bit size.
func (d *submitDecoder) integer(name string, bits int) (int64, error) {
	d.skipSpace()
	start := d.pos
	neg := d.pos < len(d.data) && d.data[d.pos] == '-'
	if neg {
		d.pos++
	}
	digits := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	lit := d.data[start:d.pos]
	switch {
	case d.pos == digits:
		d.pos = start
		return 0, d.errorf("%s: want an integer", name)
	case d.data[digits] == '0' && d.pos-digits > 1:
		d.pos = start
		return 0, d.errorf("%s: leading zero in %s", name, lit)
	case d.pos < len(d.data) && strings.IndexByte(".eE", d.data[d.pos]) >= 0:
		d.pos = start
		return 0, d.errorf("%s: want an integer, not a fraction or exponent", name)
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		d.pos = start
		return 0, d.errorf("%s: %s does not fit a %d-bit integer", name, lit, bits)
	}
	return v, nil
}
