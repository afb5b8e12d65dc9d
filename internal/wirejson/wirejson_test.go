package wirejson

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestAppendFloatMatchesEncodingJSON checks the float64 rule against
// encoding/json at its format boundaries and on random bit patterns.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456789, 1e-6, 9.99e-7, 1e-7, -1e-7,
		1e20, 1e21, -1e21, 9.999999999999999e20, 1e-300, 5e-324, 2.2250738585072014e-308,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1.25e-10, 3e100,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			vals = append(vals, f)
		}
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat([]byte("x"), f); string(got[1:]) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, encoding/json writes %s", f, got[1:], want)
		}
	}
}

// TestPlainMatchesEncodingJSON: a string of printable ASCII is Plain
// exactly when encoding/json writes it verbatim in quotes.
func TestPlainMatchesEncodingJSON(t *testing.T) {
	for c := 0; c < 256; c++ {
		s := "a" + string([]byte{byte(c)}) + "z"
		want, _ := json.Marshal(s)
		verbatim := string(want) == `"`+s+`"`
		if c >= 0x7f {
			verbatim = false // Plain refuses DEL and non-ASCII, which cost a fallback
		}
		if Plain(s) != verbatim {
			t.Errorf("byte %#x: Plain = %v, encoding/json writes %s", c, Plain(s), want)
		}
		if Plain(s) {
			if got := AppendString(nil, s); string(got) != string(want) {
				t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
			}
		}
	}
	if !Plain("") || Plain("<b>") || Plain("héllo") {
		t.Error("Plain misjudges an empty, an HTML or a non-ASCII string")
	}
}

func TestScannerInt64(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"-0", 0, true},
		{" 42 ", 42, true},
		{"-17", -17, true},
		{"1760700000123456789", 1760700000123456789, true}, // a 19-digit start time
		{"9223372036854775807", math.MaxInt64, true},
		{"-9223372036854775808", math.MinInt64, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775809", 0, false},
		{"12345678901234567890", 0, false},
		{"01", 0, false},
		{"1.0", 0, false},
		{"1e3", 0, false},
		{"1E3", 0, false},
		{"-", 0, false},
		{"", 0, false},
		{`"1"`, 0, false},
	} {
		s := Scan([]byte(tc.in))
		got := s.Int64()
		if ok := s.End(); ok != tc.ok || ok && got != tc.want {
			t.Errorf("Int64(%q) = %d, ok %v; want %d, ok %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestSkipAcceptsOnlyValidJSON: whatever Skip accepts whole is valid
// JSON, and it accepts every valid value that nests at most maxDepth
// levels.
func TestSkipAcceptsOnlyValidJSON(t *testing.T) {
	valid := []string{
		`0`, `-0.5e+10`, `1E-2`, `true`, `false`, `null`, `""`, `"a\"\\\/\b\f\n\r\té"`,
		"\"h\xc3\xa9 \xff\"", `[]`, `{}`, ` [1, "x", {"a": [null]}] `, `{"":{"":{}}}`,
		strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
	}
	invalid := []string{
		``, ` `, `01`, `1.`, `.5`, `1e`, `-`, `+1`, `tru`, `nul`, `"abc`, `"\x"`, `"\u12g4"`,
		"\"\x01\"", `[1,]`, `[,1]`, `{"a"}`, `{"a":1,}`, `{,}`, `{1:2}`, `[1 2]`, `{"a":1 "b":2}`,
		`[1]]`, `{}{}`, "[\x00]",
	}
	for _, in := range valid {
		s := Scan([]byte(in))
		s.Skip()
		if !s.End() {
			t.Errorf("Skip refused valid %q", in)
		}
	}
	for _, in := range invalid {
		s := Scan([]byte(in))
		s.Skip()
		if s.End() {
			t.Errorf("Skip accepted invalid %q", in)
		}
	}
	deep := strings.Repeat("[", maxDepth+2) + strings.Repeat("]", maxDepth+2)
	s := Scan([]byte(deep))
	if s.Skip(); s.End() {
		t.Error("Skip followed nesting past maxDepth")
	}
}

// FuzzSkip: Skip never accepts what encoding/json calls invalid.
func FuzzSkip(f *testing.F) {
	for _, seed := range []string{`{"a":[1,2.5e3,"x\n",true,null]}`, `[{}]`, `"é"`, `-0`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := Scan(b)
		s.Skip()
		if s.End() && !json.Valid(b) {
			t.Fatalf("Skip accepted %q, which encoding/json rejects", b)
		}
	})
}
