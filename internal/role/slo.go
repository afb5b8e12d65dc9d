package role

import (
	"fmt"
	"time"

	"predperf/internal/obs"
)

// RequestSLO is the request SLO pair a serving role declares over its
// own edge (obs.RequestSLOs): a latency histogram over every answered
// request, total and 5xx counters, their sliding windows, and the two
// SLOs read from them. Edge feeds it once the response is written, so
// a request counts as the client saw it: its status and its whole
// duration, every hop behind the edge included. The ops surface (IsOps)
// is left out: a /readyz 503 is readiness signal, not a failed request,
// and probes and scrapes would dilute the bad fraction with synthetic
// good traffic.
type RequestSLO struct {
	latency     *obs.Histogram
	total, errs *obs.Counter
	slos        []*obs.SLO
}

// NewRequestSLO registers <prefix>.request_seconds,
// <prefix>.requests_total and <prefix>.responses_5xx, their windows on
// clock (nil means time.Now; latest-wins, like every registered
// window), and the SLO pair named for scope as obs.RequestSLOs names
// it.
func NewRequestSLO(prefix, scope string, clock obs.Clock) *RequestSLO {
	s := &RequestSLO{
		latency: obs.NewHistogram(prefix+".request_seconds", obs.DefLatencyBuckets),
		total:   obs.NewCounter(prefix + ".requests_total"),
		errs:    obs.NewCounter(prefix + ".responses_5xx"),
	}
	s.slos = obs.RequestSLOs(scope, obs.WindowHistogram(s.latency, clock),
		obs.WindowCounter(s.errs, clock), obs.WindowCounter(s.total, clock))
	return s
}

// observe records one answered request. A nil RequestSLO records
// nothing.
func (s *RequestSLO) observe(path string, status int, d time.Duration) {
	if s == nil || IsOps(path) {
		return
	}
	s.latency.Observe(d.Seconds())
	s.total.Inc()
	if status >= 500 {
		s.errs.Inc()
	}
}

// SLOs returns the declared pair: latency, then availability.
func (s *RequestSLO) SLOs() []*obs.SLO { return s.slos }

// Section is the SLO table of a role's /statusz: each SLO's objective,
// both burn rates, the error budget it is spending, and whether it
// fires.
func (s *RequestSLO) Section() obs.Section {
	sec := obs.Section{Title: "SLOs (error budget at current 1h burn)",
		Headers: []string{"SLO", "description", "objective", "burn 5m", "burn 1h", "budget consumption", "state"}}
	for _, slo := range s.slos {
		st := slo.State()
		sec.Rows = append(sec.Rows, append(obs.Texts(st.Name, st.Description,
			fmt.Sprintf("%.4g%%", st.Objective*100), fmt.Sprintf("%.2f", st.Fast.BurnRate), fmt.Sprintf("%.2f", st.Slow.BurnRate)),
			obs.Bar(st.BudgetSpent, st.Firing, fmt.Sprintf("%.0f%%×budget", st.BudgetSpent*100)),
			obs.Verdict(st.Firing, "burning", "ok")))
	}
	return sec
}
