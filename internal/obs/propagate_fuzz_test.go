package obs

import (
	"regexp"
	"testing"
)

// requestIDContract is ValidRequestID's documented contract, written
// independently of it: 1–64 bytes of [A-Za-z0-9._-].
var requestIDContract = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// FuzzTraceparent feeds arbitrary strings to the two parsers every role
// runs on every request's headers. ParseTraceparent must never panic,
// and a value it accepts must carry a trace ID that ValidRequestID
// accepts and must survive a FormatTraceparent round trip unchanged.
// ValidRequestID must accept exactly what its contract allows.
func FuzzTraceparent(f *testing.F) {
	for _, sc := range traceparentRoundTrips {
		f.Add(FormatTraceparent(sc))
		f.Add(sc.TraceID)
	}
	for _, s := range malformedTraceparents {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := ValidRequestID(s), requestIDContract.MatchString(s); got != want {
			t.Fatalf("ValidRequestID(%q) = %v, want %v", s, got, want)
		}
		sc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if !ValidRequestID(sc.TraceID) {
			t.Fatalf("ParseTraceparent(%q) accepted trace ID %q", s, sc.TraceID)
		}
		back, ok := ParseTraceparent(FormatTraceparent(sc))
		if !ok || back != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its round trip gives %+v, %v", s, sc, back, ok)
		}
	})
}
