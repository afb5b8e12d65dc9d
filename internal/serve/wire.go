package serve

import (
	"net/http"
	"sync"

	"predperf/internal/cluster"
	"predperf/internal/role"
	"predperf/internal/wirejson"
)

// Hand-written codecs for what predserve parses or writes on every
// /v1/predict request: the request body, the response body and the
// access-log line. Each handles only the canonical shape and reports
// false for anything else, which then goes through encoding/json
// unchanged; the fuzz and byte-identity tests hold each to it.

// decodePredict decodes a canonical /v1/predict body into req: one
// object with the exact keys "model" (a plain string), "config" (one
// configuration) and "configs" (an array of them), none repeated, where
// every configuration is an object of exact WireConfig keys, none
// repeated, each a plain integer. It leaves req untouched unless it
// decodes the whole body, to exactly what role.ReadJSON decodes.
func decodePredict(body []byte, req *predictRequest) bool {
	var out predictRequest
	var seen [3]bool
	s := wirejson.Scan(body)
	s.Byte('{')
	for n := 0; s.Next('}', n); n++ {
		var field int
		switch string(s.Key()) {
		case "model":
			out.Model = string(s.String())
		case "config":
			field = 1
			out.Config = new(cluster.WireConfig)
			decodeConfig(&s, out.Config)
		case "configs":
			field = 2
			out.Configs = []cluster.WireConfig{} // encoding/json makes [] an empty, non-nil slice
			s.Byte('[')
			for m := 0; s.Next(']', m); m++ {
				out.Configs = append(out.Configs, cluster.WireConfig{})
				decodeConfig(&s, &out.Configs[m])
			}
		default:
			return false
		}
		if seen[field] {
			return false
		}
		seen[field] = true
	}
	if !s.End() {
		return false
	}
	*req = out
	return true
}

// configKeys are WireConfig's JSON keys in field order, the order
// encoding/json writes them in.
var configKeys = [...]string{"depth", "rob", "iq", "lsq", "l2kb", "l2lat", "il1kb", "dl1kb", "dl1lat"}

// configFields returns wc's fields in configKeys order.
func configFields(wc *cluster.WireConfig) [len(configKeys)]*int {
	return [...]*int{&wc.Depth, &wc.ROB, &wc.IQ, &wc.LSQ, &wc.L2KB, &wc.L2Lat, &wc.IL1KB, &wc.DL1KB, &wc.DL1Lat}
}

// decodeConfig decodes one canonical configuration object into wc.
func decodeConfig(s *wirejson.Scanner, wc *cluster.WireConfig) {
	fields := configFields(wc)
	var seen [len(configKeys)]bool
	s.Byte('{')
	for n := 0; s.Next('}', n); n++ {
		k := s.Key()
		i := 0
		for i < len(configKeys) && string(k) != configKeys[i] {
			i++
		}
		if i == len(configKeys) || seen[i] {
			s.Fail()
			return
		}
		seen[i] = true
		*fields[i] = s.Int()
	}
}

// appendConfig appends wc as encoding/json writes a WireConfig.
func appendConfig(dst []byte, wc cluster.WireConfig) []byte {
	for i, f := range configFields(&wc) {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		dst = append(dst, sep, '"')
		dst = append(dst, configKeys[i]...)
		dst = append(dst, `":`...)
		dst = wirejson.AppendInt(dst, int64(*f))
	}
	return append(dst, '}')
}

// respBufs recycles the buffers predict responses are appended to, as
// encoding/json recycles its own. A buffer past 64 KiB, from a large
// batch, is left to the collector.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// writePredict answers 200 with resp, as role.WriteJSON would: by hand,
// unless appendPredictResponse refuses it.
func writePredict(w http.ResponseWriter, resp *predictResponse) {
	buf := respBufs.Get().(*[]byte)
	body, ok := appendPredictResponse((*buf)[:0], resp)
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body) // copies body out, so the buffer can go back
	} else {
		role.WriteJSON(w, http.StatusOK, *resp)
	}
	if cap(body) <= 64<<10 {
		*buf = body[:0]
		respBufs.Put(buf)
	}
}

// appendPredictResponse appends resp exactly as json.NewEncoder(w).Encode
// writes it, trailing newline included. Every value must be finite (the
// handler answers non_finite_prediction first). A model name that
// encoding/json would escape, or nil predictions, report false.
func appendPredictResponse(dst []byte, resp *predictResponse) ([]byte, bool) {
	if !wirejson.Plain(resp.Model) || resp.Predictions == nil {
		return dst, false
	}
	dst = append(dst, `{"model":`...)
	dst = wirejson.AppendString(dst, resp.Model)
	dst = append(dst, `,"predictions":[`...)
	for i, p := range resp.Predictions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"config":`...)
		dst = appendConfig(dst, p.Config)
		dst = append(dst, `,"value":`...)
		dst = wirejson.AppendFloat(dst, p.Value)
		dst = append(dst, `,"cached":`...)
		dst = wirejson.AppendBool(dst, p.Cached)
		if p.Clamped {
			dst = append(dst, `,"clamped":true`...)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), true
}

// appendAccessEntry appends e exactly as json.Encoder.Encode writes it,
// trailing newline included. A string field that encoding/json would
// escape reports false.
func appendAccessEntry(dst []byte, e *accessEntry) ([]byte, bool) {
	if !wirejson.Plain(e.Time) || !wirejson.Plain(e.ID) || !wirejson.Plain(e.Remote) ||
		!wirejson.Plain(e.Method) || !wirejson.Plain(e.Path) || !wirejson.Plain(e.UserAgent) {
		return dst, false
	}
	dst = append(dst, `{"time":`...)
	dst = wirejson.AppendString(dst, e.Time)
	dst = append(dst, `,"id":`...)
	dst = wirejson.AppendString(dst, e.ID)
	if e.Remote != "" {
		dst = append(dst, `,"remote":`...)
		dst = wirejson.AppendString(dst, e.Remote)
	}
	dst = append(dst, `,"method":`...)
	dst = wirejson.AppendString(dst, e.Method)
	dst = append(dst, `,"path":`...)
	dst = wirejson.AppendString(dst, e.Path)
	dst = append(dst, `,"status":`...)
	dst = wirejson.AppendInt(dst, int64(e.Status))
	dst = append(dst, `,"bytes":`...)
	dst = wirejson.AppendInt(dst, e.Bytes)
	dst = append(dst, `,"dur_ms":`...)
	dst = wirejson.AppendFloat(dst, e.DurMS)
	if e.UserAgent != "" {
		dst = append(dst, `,"user_agent":`...)
		dst = wirejson.AppendString(dst, e.UserAgent)
	}
	return append(dst, "}\n"...), true
}
