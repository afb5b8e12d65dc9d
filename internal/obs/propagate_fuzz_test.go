package obs

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"reflect"
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

// FuzzSpanTrailer feeds arbitrary JSON through the router's trailer
// path: DecodeSpans, Graft under a hop span, then the two views that
// walk the forest, spanTree (/tracez) and WriteChromeTrace. None may
// panic or fail to terminate. A forest the hand-written decoder accepts
// must decode as json.Unmarshal decodes it. The decoded forest, and the
// forest of its spans repeated past the bound, must encode within
// MaxSpanTrailerBytes, whole or cut as checkSpanTrailer requires.
func FuzzSpanTrailer(f *testing.F) {
	for _, seed := range []string{
		`[{"i":1,"n":"serve.predict","s":1760700000123456789,"d":42,"a":["k","v"]}]`,
		`[{"i":1,"n":"a","s":1,"d":1},{"i":1,"p":1,"n":"b","s":2,"d":1}]`,
		`[{"i":5,"p":6,"n":"a"},{"i":6,"p":5,"n":"b"},{"i":7,"p":7,"n":"c"}]`,
		`[{"I":1,"n":"x","n":"y"}]`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spans, err := DecodeSpans(base64.StdEncoding.EncodeToString(raw))
		if err != nil {
			return
		}
		if fast, ok := decodeWireSpans(raw); ok {
			var oracle []WireSpan
			if err := json.Unmarshal(raw, &oracle); err != nil || !reflect.DeepEqual(fast, oracle) {
				t.Fatalf("hand-written decode %+v, json.Unmarshal %+v (%v)", fast, oracle, err)
			}
		}
		tr := NewTrace("fuzz")
		ctx, endHop := StartSpanCtx(WithTrace(context.Background(), tr), "router.forward")
		tr.Graft(SpanIDFrom(ctx), spans, 0)
		endHop()
		if n := tr.Len(); n != len(spans)+1 {
			t.Fatalf("grafted %d spans, want %d", n-1, len(spans))
		}
		spanTree(tr)
		if err := tr.WriteChromeTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
		checkSpanTrailer(t, spans, EncodeSpans(spans))
		if len(spans) > 0 {
			var long []WireSpan
			for len(long) <= MaxSpanTrailerBytes/16 {
				long = append(long, spans...)
			}
			checkSpanTrailer(t, long, EncodeSpans(long))
		}
	})
}
