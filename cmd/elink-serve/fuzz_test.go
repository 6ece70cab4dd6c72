package main

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"os"
	"testing"
)

// bodyRoutes are the endpoints that decode a request body.
var bodyRoutes = []string{"/v1/ingest", "/v1/query/range", "/v1/query/path"}

// FuzzServeBodies posts arbitrary bytes to one of the three body-decoding
// endpoints of a freshly bootstrapped 1×6 server. Whatever the body, the
// daemon must answer without panicking, with a status a client can act
// on, and with a JSON body.
func FuzzServeBodies(f *testing.F) {
	f.Add(uint8(0), []byte(`{"features":[{"node":2,"feature":[0.3]}]}`))
	f.Add(uint8(0), []byte(`{"readings":[{"node":0,"value":1}]}`))
	f.Add(uint8(1), []byte(`{"feature":[0.1],"radius":0.5,"initiator":0}`))
	f.Add(uint8(2), []byte(`{"danger":[9.1],"gamma":2,"src":0,"dst":5}`))
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		_, mux := newTestServer(t)
		bootstrapTestServer(t, mux)
		path := bodyRoutes[int(route)%len(bodyRoutes)]
		w := do(t, mux, "POST", path, string(body))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST %s %q = %d %s", path, body, w.Code, w.Body.String())
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("POST %s %q = %d with a non-JSON body %q", path, body, w.Code, w.Body.String())
		}
	})
}
