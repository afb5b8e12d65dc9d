package role_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"predperf/internal/obs"
	"predperf/internal/role"
)

// grafted returns tr's spans named callee.work.
func grafted(tr *obs.Trace) []obs.SpanInfo {
	var out []obs.SpanInfo
	for _, s := range tr.Spans() {
		if s.Name == "callee.work" {
			out = append(out, s)
		}
	}
	return out
}

// TestCall drives role.Call against stub callees: the identity headers
// it sends with and without a trace in the context, its refusal of an
// answer past MaxAnswerBytes whether declared or streamed, and the graft
// of a sampled callee's trailer forest under the caller's span.
func TestCall(t *testing.T) {
	tr := obs.NewTrace("call-trace")
	traced, endHop := obs.StartSpanArgs(obs.WithRequestID(obs.WithTrace(context.Background(), tr), "call-trace"), "hop")
	defer endHop()
	hop := obs.SpanIDFrom(traced)

	forest := []obs.WireSpan{{ID: 1, Name: "callee.work", Start: time.Now().UnixNano(), Dur: int64(time.Millisecond)}}
	plain := func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{}`) }
	withSpans := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", obs.SpanTrailerHeader)
		io.WriteString(w, `{}`)
		w.Header().Set(obs.SpanTrailerHeader, obs.EncodeSpans(forest))
	}
	// declared claims one byte past the cap and sends one: reading the
	// body would fail on its short end, not on the cap.
	declared := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(role.MaxAnswerBytes+1))
		io.WriteString(w, "x")
	}
	streamed := func(w http.ResponseWriter, r *http.Request) {
		chunk := strings.Repeat("x", 64<<10)
		for left := role.MaxAnswerBytes + 1; left > 0; left -= len(chunk) {
			if _, err := io.WriteString(w, chunk[:min(left, len(chunk))]); err != nil {
				return // the caller hung up, as it should
			}
		}
	}
	unsampled := func(id string, parent int64) string {
		return obs.FormatTraceparent(obs.SpanContext{TraceID: id, ParentID: parent})
	}

	for _, c := range []struct {
		name  string
		ctx   context.Context
		serve http.HandlerFunc
		// id is the X-Request-Id the callee must see ("minted": a fresh
		// valid one); traceparent the header it must see.
		id, traceparent string
		err             string // a substring of the error, "" for success
		graft           bool   // the trailer forest grafts under hop
	}{
		{"no identity", context.Background(), plain, "", "", "", false},
		{"request ID, no trace", obs.WithRequestID(context.Background(), "call-id"), plain,
			"call-id", unsampled("call-id", 0), "", false},
		{"traced", traced, withSpans, "call-trace",
			obs.FormatTraceparent(obs.SpanContext{TraceID: "call-trace", ParentID: hop, Sampled: true}), "", true},
		{"untraced from a trace", role.Untraced(traced), withSpans, "call-trace", unsampled("call-trace", hop), "", false},
		{"untraced from nothing", role.Untraced(context.Background()), plain, "minted", "", "", false},
		{"declared past the cap", traced, declared, "call-trace", "", "exceeds", false},
		{"streamed past the cap", traced, streamed, "call-trace", "", "exceeds", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			seen := make(chan http.Header, 1)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				seen <- r.Header.Clone()
				c.serve(w, r)
			}))
			defer srv.Close()
			before := len(grafted(tr))
			a, err := role.Call(c.ctx, srv.Client(), http.MethodGet, srv.URL+"/x?q=1", nil, 10*time.Second)

			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("err = %v, want one saying %q", err, c.err)
				}
				if a.Status != 0 || a.Body != nil {
					t.Errorf("failed call returned an answer: %d, %d bytes", a.Status, len(a.Body))
				}
			} else if err != nil || a.Status != http.StatusOK || string(a.Body) != `{}` {
				t.Fatalf("Call = %d %q, %v", a.Status, a.Body, err)
			}

			got := <-seen
			id := got.Get(role.RequestIDHeader)
			switch {
			case c.id == "minted":
				if !obs.ValidRequestID(id) || got.Get(obs.TraceparentHeader) != unsampled(id, 0) {
					t.Errorf("minted identity: X-Request-Id %q, traceparent %q", id, got.Get(obs.TraceparentHeader))
				}
			case id != c.id:
				t.Errorf("X-Request-Id = %q, want %q", id, c.id)
			case c.traceparent != "" && got.Get(obs.TraceparentHeader) != c.traceparent:
				t.Errorf("traceparent = %q, want %q", got.Get(obs.TraceparentHeader), c.traceparent)
			case c.id == "" && got.Get(obs.TraceparentHeader) != "":
				t.Errorf("a call without identity sent traceparent %q", got.Get(obs.TraceparentHeader))
			}

			spans := grafted(tr)
			args := a.SpanArgs("status", "200")
			if !c.graft {
				if len(spans) != before || len(args) != 2 {
					t.Errorf("no graft wanted, got %d new spans and span args %q", len(spans)-before, args)
				}
				return
			}
			if len(spans) != before+1 || spans[before].Parent != hop {
				t.Fatalf("grafted spans %+v, want one callee.work under span %d", spans[before:], hop)
			}
			if len(args) != 4 || args[2] != "clock_offset_ms" {
				t.Fatalf("span args %q, want status and clock_offset_ms", args)
			}
			if _, err := strconv.ParseFloat(args[3], 64); err != nil {
				t.Errorf("clock_offset_ms %q: %v", args[3], err)
			}
		})
	}
}
