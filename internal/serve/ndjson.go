package serve

import (
	"strconv"
	"unicode/utf8"
)

// appendEvent appends ev as one NDJSON line: the bytes json.Encoder.Encode
// writes for it, trailing newline included, without reflection.
// FuzzStreamEvent holds it to json.Encoder.
func appendEvent(dst []byte, ev *Event) []byte {
	dst = append(dst, `{"type":`...)
	dst = appendJSONString(dst, ev.Type)
	dst = appendIntField(dst, `,"done":`, ev.Done)
	dst = appendIntField(dst, `,"total":`, ev.Total)
	dst = appendIntField(dst, `,"rank":`, ev.Rank)
	dst = appendIntField(dst, `,"score":`, ev.Score)
	dst = appendStringField(dst, `,"fingerprint":`, ev.Fingerprint)
	if len(ev.Members) > 0 {
		dst = append(dst, `,"members":[`...)
		for i, m := range ev.Members {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(m), 10)
		}
		dst = append(dst, ']')
	}
	dst = appendStringField(dst, `,"code":`, ev.Code)
	dst = appendStringField(dst, `,"status":`, ev.Status)
	dst = appendStringField(dst, `,"error":`, ev.Error)
	return append(dst, '}', '\n')
}

// appendAccepted appends the POST /jobs acknowledgement: the bytes
// json.Encoder.Encode writes for map[string]string{"id": id, "status":
// StatusQueued}.
func appendAccepted(dst []byte, id string) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, id)
	dst = append(dst, `,"status":`...)
	dst = appendJSONString(dst, StatusQueued)
	return append(dst, '}', '\n')
}

// appendIntField appends an omitempty int field: nothing when v is zero.
func appendIntField(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// appendStringField appends an omitempty string field: nothing when s is
// empty.
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendJSONString(append(dst, key...), s)
}

// appendJSONString appends s as a JSON string the way json.Encoder does
// with HTML escaping on (its default): '"' and '\\' and the control bytes
// \b \f \n \r \t take their short escapes, other control bytes and < > &
// become \u00XX, U+2028 and U+2029 become \u2028 and \u2029, and each byte
// of invalid UTF-8 becomes \ufffd. Runs that need none of that are copied
// whole.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch {
		case r == utf8.RuneError && size == 1:
			esc = `\ufffd`
		case r == '\u2028':
			esc = `\u2028`
		case r == '\u2029':
			esc = `\u2029`
		default:
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe marks the ASCII bytes appendJSONString copies as they are:
// everything from 0x20 up except '"', '\\', '<', '>' and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()
