// Package wirejson is the hand-written JSON of the bodies the routed
// predict path parses or writes on every request. It has two halves:
//
//   - append helpers that write ints, bools, float64s and strings that
//     need no escaping exactly as encoding/json writes them;
//   - a Scanner that reads only a body's canonical shape: whitespace,
//     exact ASCII keys, integers of up to 19 digits and strings without
//     escapes, and that can skip any valid value. The first byte outside
//     that shape makes it report "not canonical", never an error.
//
// A caller that meets a string needing escapes, or a body the Scanner
// refuses, hands the same value or bytes to encoding/json, which stays
// the error path and the test oracle; so every accepted input decodes to
// what encoding/json decodes and every written body is its bytes. The
// package imports only the standard library, so obs can use it too.
package wirejson

import (
	"math"
	"strconv"
)

// AppendInt appends v as encoding/json writes an integer.
func AppendInt(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// AppendBool appends v as encoding/json writes a bool.
func AppendBool(dst []byte, v bool) []byte { return strconv.AppendBool(dst, v) }

// AppendFloat appends a finite f as encoding/json writes a float64: the
// shortest representation that round-trips, in 'f' format, or in 'e'
// format when |f| < 1e-6 or |f| >= 1e21, with a two-digit negative
// exponent shortened ("e-07" becomes "e-7"). encoding/json refuses NaN
// and ±Inf, so callers must too.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// plain marks the bytes encoding/json writes verbatim inside a string:
// printable ASCII other than '"' and '\\', and other than '<', '>' and
// '&', which its HTML-safe default escapes.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// Plain reports whether encoding/json writes s verbatim between quotes,
// so that AppendString may write it.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return false
		}
	}
	return true
}

// AppendString appends s in quotes; s must be Plain.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// maxDepth bounds the nesting Skip follows; deeper values are not
// canonical (encoding/json allows 10000 levels and reports the rest).
const maxDepth = 64

// Scanner reads one JSON body in its canonical shape. Every method
// checks what it reads; the first departure from the shape marks the
// scanner failed, after which methods return zero values and End reports
// false. Strings and keys come back as slices of the body, so reading
// them allocates nothing.
type Scanner struct {
	b   []byte
	i   int
	bad bool
}

// Scan returns a scanner over b.
func Scan(b []byte) Scanner { return Scanner{b: b} }

// Fail marks the input not canonical, for shape rules the caller
// checks itself, such as a repeated key.
func (s *Scanner) Fail() { s.bad = true }

// End reports whether the input had the canonical shape and nothing but
// whitespace follows what was read.
func (s *Scanner) End() bool { return s.peek() == 0 && !s.bad && s.i == len(s.b) }

// peek skips whitespace and returns the next byte without consuming it:
// 0 at the end of the input or once the scanner has failed.
func (s *Scanner) peek() byte {
	if s.bad {
		return 0
	}
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// Byte consumes the next non-space byte, which must be c.
func (s *Scanner) Byte(c byte) {
	if s.peek() != c {
		s.bad = true
		return
	}
	s.i++
}

// Next steps through the members of an object or the elements of an
// array whose opening byte the caller consumed; n counts those read so
// far. It consumes the comma before another one and reports true, or
// consumes the closing byte and reports false. The idiom is
//
//	s.Byte('{')
//	for n := 0; s.Next('}', n); n++ {
//		switch string(s.Key()) { ... }
//	}
func (s *Scanner) Next(closing byte, n int) bool {
	switch c := s.peek(); {
	case c == closing:
		s.i++
		return false
	case n == 0 && c != 0:
		return true
	case c == ',':
		s.i++
		return true
	default:
		s.bad = true
		return false
	}
}

// Key reads an object key and the colon after it. The key must be a
// String.
func (s *Scanner) Key() []byte {
	k := s.String()
	s.Byte(':')
	return k
}

// String reads a string of printable ASCII without escapes and returns
// its content.
func (s *Scanner) String() []byte {
	if s.peek() != '"' {
		s.bad = true
		return nil
	}
	start := s.i + 1
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return s.b[start:i]
		case c < 0x20 || c > 0x7e || c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// Int64 reads an integer: an optional minus sign and 1 to 19 digits
// without a leading zero, with no fraction or exponent, within int64.
func (s *Scanner) Int64() int64 {
	if s.peek() == 0 {
		s.bad = true
		return 0
	}
	i := s.i
	neg := s.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(s.b) && s.b[i] >= '0' && s.b[i] <= '9'; i++ {
		u = u*10 + uint64(s.b[i]-'0') // 19 digits cannot overflow a uint64
	}
	digits := i - start
	if digits == 0 || digits > 19 || digits > 1 && s.b[start] == '0' ||
		i < len(s.b) && (s.b[i] == '.' || s.b[i] == 'e' || s.b[i] == 'E') ||
		u > math.MaxInt64+1 || !neg && u > math.MaxInt64 {
		s.bad = true
		return 0
	}
	s.i = i
	if neg {
		return int64(-u)
	}
	return int64(u)
}

// Int reads an Int64 that also fits an int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.bad = true
		return 0
	}
	return int(v)
}

// Skip consumes one valid JSON value of any kind. Nesting deeper than
// maxDepth is not canonical.
func (s *Scanner) Skip() { s.skip(0) }

func (s *Scanner) skip(depth int) {
	if depth > maxDepth {
		s.bad = true
		return
	}
	switch s.peek() {
	case '{':
		s.i++
		for n := 0; s.Next('}', n); n++ {
			s.skipString()
			s.Byte(':')
			s.skip(depth + 1)
		}
	case '[':
		s.i++
		for n := 0; s.Next(']', n); n++ {
			s.skip(depth + 1)
		}
	case '"':
		s.skipString()
	case 't':
		s.literal("true")
	case 'f':
		s.literal("false")
	case 'n':
		s.literal("null")
	default:
		s.number()
	}
}

// skipString consumes any valid JSON string: no control bytes, and only
// the escapes JSON defines.
func (s *Scanner) skipString() {
	if s.peek() != '"' {
		s.bad = true
		return
	}
	for i := s.i + 1; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return
		case c < 0x20:
			s.bad = true
			return
		case c == '\\':
			if i++; i == len(s.b) {
				s.bad = true
				return
			}
			switch s.b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(s.b) || !isHex(s.b[i+1]) || !isHex(s.b[i+2]) || !isHex(s.b[i+3]) || !isHex(s.b[i+4]) {
					s.bad = true
					return
				}
				i += 4
			default:
				s.bad = true
				return
			}
		}
	}
	s.bad = true
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// literal consumes the bytes of lit.
func (s *Scanner) literal(lit string) {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		s.bad = true
		return
	}
	s.i += len(lit)
}

// number consumes a JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *Scanner) number() {
	i := s.i
	if i < len(s.b) && s.b[i] == '-' {
		i++
	}
	switch {
	case i < len(s.b) && s.b[i] == '0':
		i++
	case i < len(s.b) && s.b[i] >= '1' && s.b[i] <= '9':
		i = s.digits(i)
	default:
		s.bad = true
		return
	}
	if i < len(s.b) && s.b[i] == '.' {
		if i = s.digits(i + 1); i < 0 {
			s.bad = true
			return
		}
	}
	if i < len(s.b) && (s.b[i] == 'e' || s.b[i] == 'E') {
		i++
		if i < len(s.b) && (s.b[i] == '+' || s.b[i] == '-') {
			i++
		}
		if i = s.digits(i); i < 0 {
			s.bad = true
			return
		}
	}
	s.i = i
}

// digits returns the index past the run of digits starting at i, or -1
// when there is none.
func (s *Scanner) digits(i int) int {
	start := i
	for i < len(s.b) && s.b[i] >= '0' && s.b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// PeekString returns the string value of key in the top-level object of
// body, or "" when the object has no such key. It reports false, and
// the caller decodes the body with encoding/json instead, unless body
// is one valid object whose keys and key's value are plain ASCII
// without escapes, in which key appears at most once with a string
// value, and no other key matches key when case is ignored (as
// encoding/json matches field names). Nesting deeper than 64 levels is
// not canonical either.
func PeekString(body []byte, key string) (string, bool) {
	s := Scan(body)
	var val []byte
	found := false
	s.Byte('{')
	for n := 0; s.Next('}', n); n++ {
		k := s.Key()
		switch {
		case string(k) == key:
			if found {
				return "", false
			}
			val, found = s.String(), true
		case equalFold(k, key):
			return "", false
		default:
			s.Skip()
		}
	}
	if !s.End() {
		return "", false
	}
	return string(val), true
}

// equalFold reports whether ASCII k equals key when case is ignored. It
// also folds a few punctuation pairs ('@' and '`', for one) together,
// which costs a fallback, never a wrong answer.
func equalFold(k []byte, key string) bool {
	if len(k) != len(key) {
		return false
	}
	for i := range k {
		if k[i]|0x20 != key[i]|0x20 {
			return false
		}
	}
	return true
}
