package obs

import (
	"fmt"
	"sync"
	"time"
)

// SLO tracking in the multi-window burn-rate style of the Google SRE
// workbook: an SLO declares an objective (the target fraction of "good"
// events) and reads its service-level indicator over a fast and a slow
// window. The burn rate over a window is
//
//	burn = badFraction / errorBudget = (1 - good/total) / (1 - objective)
//
// so burn == 1 means the service is spending its error budget exactly
// as fast as the objective allows; burn == 14.4 over both a 5m and a 1h
// window (the classic paging threshold) means a month-long budget would
// be gone in two days. Requiring BOTH windows to exceed the threshold
// combines fast detection (the 5m window reacts within a bucket
// rotation) with de-flapping (the 1h window ignores one bad burst).

// BurnThreshold is the paging burn rate: an SLO fires when both of its
// windows burn faster than this.
const BurnThreshold = 14.4

// The fast and slow burn windows.
const (
	DefFastWindow = 5 * time.Minute
	DefSlowWindow = time.Hour
)

// The request SLO every serving role declares over its request metrics:
// RequestObjective of requests complete within RequestLatency, and the
// same share answer non-5xx. 250ms is a DefLatencyBuckets bound, so the
// windowed good-count is exact, not interpolated.
const (
	RequestLatency   = 250 * time.Millisecond
	RequestObjective = 0.999
)

// SLIFunc reads a service-level indicator over a trailing window: how
// many events were good, out of how many total.
type SLIFunc func(window time.Duration) (good, total int64)

// SLO is one declarative objective over a windowed indicator.
type SLO struct {
	// Name identifies the SLO in /alertz, /statusz, and reports.
	Name string
	// Description says what "good" means, for dashboards.
	Description string
	// Objective is the target good fraction in (0, 1), e.g. 0.999.
	Objective float64
	// SLI reads the indicator.
	SLI SLIFunc
}

// RequestSLOs declares and registers the request SLO pair over one
// role's request windows: the latency objective over latency, and the
// availability objective over errors out of total. scope names whose
// requests they count: "" for predserve ("latency", "availability"),
// "router" for predrouter ("router-latency", "router-availability").
func RequestSLOs(scope string, latency *WindowedHistogram, errors, total *WindowedCounter) []*SLO {
	name, of := "", ""
	if scope != "" {
		name, of = scope+"-", scope+" "
	}
	pct := RequestObjective * 100
	return []*SLO{
		RegisterSLO(&SLO{
			Name:        name + "latency",
			Description: fmt.Sprintf("%.4g%% of %srequests complete within %s", pct, of, RequestLatency),
			Objective:   RequestObjective,
			SLI:         LatencySLI(latency, RequestLatency.Seconds()),
		}),
		RegisterSLO(&SLO{
			Name:        name + "availability",
			Description: fmt.Sprintf("%.4g%% of %sresponses are non-5xx", pct, of),
			Objective:   RequestObjective,
			SLI:         AvailabilitySLI(errors, total),
		}),
	}
}

// BurnWindow is the burn-rate computation over one window.
type BurnWindow struct {
	Window      string  `json:"window"`
	Good        int64   `json:"good"`
	Total       int64   `json:"total"`
	BadFraction float64 `json:"bad_fraction"`
	BurnRate    float64 `json:"burn_rate"`
}

// SLOState is one SLO's evaluated state, JSON-ready for /alertz,
// /statusz, and the run report.
type SLOState struct {
	Name        string     `json:"name"`
	Description string     `json:"description,omitempty"`
	Objective   float64    `json:"objective"`
	Threshold   float64    `json:"threshold"`
	Fast        BurnWindow `json:"fast"`
	Slow        BurnWindow `json:"slow"`
	// BudgetSpent is the fraction of error budget being consumed at the
	// slow window's current bad rate (1.0 = budget exactly exhausted if
	// this rate holds; capped at 10 for display sanity).
	BudgetSpent float64 `json:"budget_spent"`
	Firing      bool    `json:"firing"`
}

// burnOver evaluates one window. An empty window burns nothing: no
// traffic is not an SLO violation.
func (s *SLO) burnOver(d time.Duration) BurnWindow {
	good, total := s.SLI(d)
	bw := BurnWindow{Window: WindowLabel(d), Good: good, Total: total}
	if total <= 0 {
		return bw
	}
	bad := float64(total-good) / float64(total)
	if bad < 0 {
		bad = 0
	}
	bw.BadFraction = bad
	if budget := 1 - s.Objective; budget > 0 {
		bw.BurnRate = bad / budget
	}
	return bw
}

// State evaluates both burn windows. The SLO fires when both exceed the
// threshold — the multi-window AND that pages fast without flapping.
func (s *SLO) State() SLOState {
	st := SLOState{
		Name:        s.Name,
		Description: s.Description,
		Objective:   s.Objective,
		Threshold:   BurnThreshold,
		Fast:        s.burnOver(DefFastWindow),
		Slow:        s.burnOver(DefSlowWindow),
	}
	st.BudgetSpent = min(st.Slow.BurnRate, 10)
	st.Firing = st.Fast.BurnRate > st.Threshold && st.Slow.BurnRate > st.Threshold
	return st
}

// LatencySLI builds an SLI over a windowed latency histogram: good means
// the request completed within threshold seconds. The threshold is
// bucket-quantized (see WindowedHistogram.GoodOver) — align it with a
// bucket bound for exact accounting.
func LatencySLI(w *WindowedHistogram, thresholdSec float64) SLIFunc {
	return func(d time.Duration) (good, total int64) {
		return w.GoodOver(d, thresholdSec)
	}
}

// AvailabilitySLI builds an SLI from an error counter and a total
// counter: good = total - errors.
func AvailabilitySLI(errors, total *WindowedCounter) SLIFunc {
	return func(d time.Duration) (good, totalN int64) {
		t := total.CountOver(d)
		e := errors.CountOver(d)
		if e > t {
			e = t
		}
		return t - e, t
	}
}

// slos is the global SLO registry, so the run report can include SLO
// states next to the metrics they derive from. Latest-wins re-binding by
// name, like GaugeFunc.
var slos struct {
	mu     sync.Mutex
	byName map[string]*SLO
	order  []string
}

func init() {
	slos.byName = map[string]*SLO{}
}

// RegisterSLO installs s in the global registry (replacing any previous
// SLO with the same name) and returns it.
func RegisterSLO(s *SLO) *SLO {
	slos.mu.Lock()
	defer slos.mu.Unlock()
	if _, ok := slos.byName[s.Name]; !ok {
		slos.order = append(slos.order, s.Name)
	}
	slos.byName[s.Name] = s
	return s
}

// SLOStates evaluates every registered SLO, in registration order.
func SLOStates() []SLOState {
	slos.mu.Lock()
	list := make([]*SLO, 0, len(slos.order))
	for _, name := range slos.order {
		list = append(list, slos.byName[name])
	}
	slos.mu.Unlock()
	if len(list) == 0 {
		return nil
	}
	out := make([]SLOState, len(list))
	for i, s := range list {
		out[i] = s.State()
	}
	return out
}

// Alert is one named condition's public state: whether it is firing,
// when it last fired and resolved (RFC 3339; resolved_at empty while
// firing or never fired), and how many distinct firings it has had.
type Alert struct {
	Name       string `json:"name"`
	Firing     bool   `json:"firing"`
	Reason     string `json:"reason,omitempty"`
	Since      string `json:"since"`
	ResolvedAt string `json:"resolved_at,omitempty"`
	Count      int    `json:"count"`
}

// alertState is the internal record behind one Alert.
type alertState struct {
	name     string
	firing   bool
	reason   string
	since    time.Time
	resolved time.Time
	count    int
}

// AlertSet tracks firing/resolved transitions with timestamps — the
// backing store of /alertz. Conditions are (re-)evaluated by the caller;
// the set only records transitions.
type AlertSet struct {
	mu     sync.Mutex
	clock  Clock
	byName map[string]*alertState
	order  []string
}

// NewAlertSet builds an alert set on the given clock (nil: time.Now).
func NewAlertSet(clock Clock) *AlertSet {
	if clock == nil {
		clock = time.Now
	}
	return &AlertSet{clock: clock, byName: map[string]*alertState{}}
}

// Set records the current state of a named condition. A false state for
// a condition that never fired is dropped (the alert list only contains
// conditions that fired at least once). Transitions stamp Since /
// ResolvedAt with the set's clock.
func (a *AlertSet) Set(name string, firing bool, format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.byName[name]
	if !ok {
		if !firing {
			return
		}
		st = &alertState{name: name}
		a.byName[name] = st
		a.order = append(a.order, name)
	}
	now := a.clock()
	switch {
	case firing && !st.firing:
		st.firing = true
		st.since = now
		st.resolved = time.Time{}
		st.count++
		st.reason = fmt.Sprintf(format, args...)
	case firing:
		st.reason = fmt.Sprintf(format, args...)
	case !firing && st.firing:
		st.firing = false
		st.resolved = now
	}
}

// Alerts snapshots every condition that has ever fired, firing first,
// then by first-registration order.
func (a *AlertSet) Alerts() []Alert {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Alert, 0, len(a.order))
	for _, firingPass := range []bool{true, false} {
		for _, name := range a.order {
			st := a.byName[name]
			if st.firing != firingPass {
				continue
			}
			al := Alert{
				Name:   st.name,
				Firing: st.firing,
				Reason: st.reason,
				Since:  st.since.UTC().Format(time.RFC3339),
				Count:  st.count,
			}
			if !st.resolved.IsZero() {
				al.ResolvedAt = st.resolved.UTC().Format(time.RFC3339)
			}
			out = append(out, al)
		}
	}
	return out
}

// FiringCount reports how many conditions are currently firing.
func (a *AlertSet) FiringCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, st := range a.byName {
		if st.firing {
			n++
		}
	}
	return n
}
