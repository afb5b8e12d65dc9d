package obs

import (
	"encoding/json"
	"net/http"
)

// APIError is the structured error body every role answers with:
// {"error":{"code","message"}}. The code is a stable machine-readable
// token, the message is for people.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteError writes the structured error body as compact JSON, one
// line, with the given status.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error APIError `json:"error"`
	}{APIError{Code: code, Message: message}})
}
