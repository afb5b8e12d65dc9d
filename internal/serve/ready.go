package serve

import (
	"fmt"
	"net/http"

	"predperf/internal/obs"
	"predperf/internal/role"
)

// Readiness: /healthz says the process is alive; /readyz says it should
// receive traffic. A predserve is unready when it has nothing to serve
// (empty registry), when an SLO is burning error budget past its
// threshold on both the fast and slow windows, or when a model's shadow
// drift monitor has tripped. /alertz exposes the underlying firing/
// resolved alert history with timestamps.

// unreadyReason is one structured cause in a 503 /readyz body, in the
// same {code, message} shape as an error.
type unreadyReason = obs.APIError

// evaluate re-checks every readiness condition, records transitions in
// the alert set, and returns the currently-failing reasons (nil when
// ready). Called lazily by /readyz, /alertz, and /statusz — conditions
// are cheap window reads, so per-request evaluation is fine and keeps
// the alert log current without a background evaluator.
func (s *Server) evaluate() []unreadyReason {
	var reasons []unreadyReason

	empty := s.reg.Len() == 0
	s.alerts.Set("no_models", empty, "model registry is empty; hot-load with POST /v1/models/load")
	if empty {
		reasons = append(reasons, unreadyReason{
			Code:    "no_models",
			Message: "model registry is empty; hot-load with POST /v1/models/load",
		})
	}

	for _, slo := range s.slo.SLOs() {
		st := slo.State()
		msg := sloBurnMessage(st)
		s.alerts.Set("slo_burn:"+st.Name, st.Firing, "%s", msg)
		if st.Firing {
			reasons = append(reasons, unreadyReason{Code: "slo_burn", Message: msg})
		}
	}

	for _, d := range s.shadow.driftStates() {
		s.alerts.Set("model_drift:"+d.Model, d.Firing, "%s", d.reason())
		if d.Firing {
			reasons = append(reasons, unreadyReason{Code: "model_drift", Message: d.reason()})
		}
	}
	return reasons
}

func sloBurnMessage(st obs.SLOState) string {
	return fmt.Sprintf("SLO %s burn rate %.2f (%s) / %.2f (%s) exceeds %.2f",
		st.Name, st.Fast.BurnRate, st.Fast.Window, st.Slow.BurnRate, st.Slow.Window, st.Threshold)
}

// ---- /readyz ----

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	reasons := s.evaluate()
	if len(reasons) == 0 {
		role.WriteJSON(w, http.StatusOK, map[string]any{
			"status": "ready",
			"models": s.reg.Len(),
		})
		return
	}
	role.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"status":  "unready",
		"reasons": reasons,
	})
}

// ---- /alertz ----

func (s *Server) handleAlertz(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	s.evaluate()
	role.WriteJSON(w, http.StatusOK, map[string]any{
		"firing": s.alerts.FiringCount(),
		"alerts": s.alerts.Alerts(),
	})
}
