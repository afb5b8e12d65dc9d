package role

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"predperf/internal/obs"
)

// MaxAnswerBytes caps the body of any answer one role reads from
// another. A longer answer is a failed call, never a truncated one.
const MaxAnswerBytes = 64 << 20

// Answer is another role's reply to a Call, its body read whole.
type Answer struct {
	Status int
	Header http.Header
	Body   []byte
	// RTT runs from sending the request to reading the answer's last
	// byte.
	RTT time.Duration
	// offsetMS is the shift applied to the callee's grafted span forest,
	// in milliseconds, or "" when no forest was grafted.
	offsetMS string
}

// SpanArgs returns kv, followed by "clock_offset_ms" and its value when
// the callee's span forest was grafted. The caller ends its hop span
// with these arguments, so the shift Call applied to the callee's spans
// stays on the trace: a skewed clock shows as a large offset rather
// than hiding in the timeline.
func (a Answer) SpanArgs(kv ...string) []string {
	if a.offsetMS == "" {
		return kv
	}
	return append(kv, "clock_offset_ms", a.offsetMS)
}

// Call sends one request from this role to another and reads the answer
// whole. It is the outbound half of Edge:
//
//   - the request carries ctx's request ID on X-Request-Id (the trace's
//     ID when ctx holds a trace) and a traceparent under ctx's span,
//     sampled exactly when ctx holds a trace. A ctx with no ID sends
//     neither, and the callee decides for itself;
//   - a non-empty body is sent as application/json;
//   - timeout bounds the whole exchange;
//   - an answer longer than MaxAnswerBytes is an error, and is read no
//     further than the cap;
//   - when ctx holds a trace, the callee's span forest (the
//     X-Trace-Spans trailer) is grafted under ctx's span, shifted onto
//     the local clock (see Answer.SpanArgs).
//
// On error the Answer is zero.
func Call(ctx context.Context, client *http.Client, method, url string, body []byte, timeout time.Duration) (Answer, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return Answer{}, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	tr := obs.TraceFrom(ctx)
	id := obs.RequestIDFrom(ctx)
	if tr != nil {
		id = tr.ID()
	}
	if id != "" {
		req.Header.Set(RequestIDHeader, id)
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.SpanContext{
			TraceID: id, ParentID: obs.SpanIDFrom(ctx), Sampled: tr != nil,
		}))
	}
	sent := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return Answer{}, err
	}
	defer resp.Body.Close()
	if resp.ContentLength > MaxAnswerBytes {
		return Answer{}, tooLong(url)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxAnswerBytes+1))
	if err != nil {
		return Answer{}, fmt.Errorf("reading the answer from %s: %w", url, err)
	}
	if len(raw) > MaxAnswerBytes {
		return Answer{}, tooLong(url)
	}
	a := Answer{Status: resp.StatusCode, Header: resp.Header, Body: raw, RTT: time.Since(sent)}
	if tr != nil {
		// Trailers are readable only once the body is read to its end.
		if spans, err := obs.DecodeSpans(resp.Trailer.Get(obs.SpanTrailerHeader)); err == nil && len(spans) > 0 {
			off := obs.ClockOffset(sent, a.RTT, spans)
			tr.Graft(obs.SpanIDFrom(ctx), spans, off)
			a.offsetMS = strconv.FormatFloat(float64(off)/float64(time.Millisecond), 'f', 3, 64)
		}
	}
	return a, nil
}

// tooLong is the error of an answer past MaxAnswerBytes.
func tooLong(url string) error {
	return fmt.Errorf("the answer from %s exceeds %d bytes", url, MaxAnswerBytes)
}

// Untraced returns ctx without its trace and with a request ID, minted
// when ctx has none. A Call on it sends an unsampled traceparent, so
// the callee records nothing: it is for a role's own background
// traffic, such as polls and scrapes, which would otherwise fill every
// role's /tracez with plumbing.
func Untraced(ctx context.Context) context.Context {
	if obs.RequestIDFrom(ctx) == "" {
		ctx = obs.WithRequestID(ctx, obs.NewTraceID())
	}
	return obs.WithTrace(ctx, nil)
}
