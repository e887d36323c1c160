package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzAnalyzeRequest posts arbitrary bodies to /v1/analyze and
// /v1/optimize on one server bounded by a small step budget and a
// short deadline. Whatever the body, the answer is a success, a
// client error (400, 413, 422) or an overload refusal (503, 504) —
// never a 500 — and it arrives within the deadline plus slack.
func FuzzAnalyzeRequest(f *testing.F) {
	const deadline = 2 * time.Second
	s := New(Config{
		Workers:        2,
		CacheEntries:   64,
		DefaultTimeout: deadline,
		MaxTimeout:     deadline,
		MaxBodyBytes:   16 << 10,
		MaxSteps:       200_000,
	})
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)
	const slack = 3 * time.Second
	hc := &http.Client{Timeout: deadline + slack}

	for _, body := range []string{
		`{"kernel":"sec21","n":256}`,
		`{"kernel":"fig7","n":512,"profile":true,"mrc":true,"belady":true,"trace":true,"machines":["Origin2000","SkylakeSP"]}`,
		`{"kernel":"fig7","n":512,"verify":"differential","tol":1e-6,"pipeline":"fuse, store-elim"}`,
		`{"program":"program t\narray a[8]\nscalar s\nloop L { for i = 0, 7 { a[i] = i }\n for i = 0, 7 { s = s + a[i] }\n print s }"}`,
		`{"program":"program t\nloop L { for i = 0, 1000000000 { s = 1 } }"}`,
		`{"kernel":`, `not json`, `[]`, `null`, ``, `{"kernel":"sec21"} {}`,
		`{"kernel":"sec21","passes":{"fuse":true}}`,
		`{"kernel":"matmul","n":1000000000}`, `{"kernel":"conv","n":-5}`,
		`{"kernel":"nope"}`, `{"kernel":"sec21","machine":"cray"}`, `{"kernel":"sec21","scale":-3}`,
		`{"kernel":"sec21","program":"program x"}`,
		`{"kernel":"sec21","pipeline":"warp:::,,interchange:"}`, `{"kernel":"sec21","pipeline":" , "}`,
		`{"kernel":"sec21","verify":"quantum"}`, `{"kernel":"sec21","timeout_ms":-1}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/v1/analyze", "/v1/optimize"} {
			begin := time.Now()
			resp, err := hc.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatalf("%s: %v after %v (deadline %v) for body %q", path, err, time.Since(begin), deadline, body)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
				http.StatusUnprocessableEntity, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			default:
				t.Fatalf("%s: status %d for body %q: %s", path, resp.StatusCode, body, out)
			}
		}
	})
}
