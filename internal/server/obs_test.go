package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"modellake/internal/lake"
	"modellake/internal/obs"
	"modellake/internal/registry"
)

// TestIntParamValidation pins the strict ?k= contract on the search and
// related routes: absent means default, anything malformed or non-positive is
// the client's 400, never a silent fallback.
func TestIntParamValidation(t *testing.T) {
	ts, _, _, ids := testServer(t)
	cases := []struct {
		name string
		url  string
		want int
	}{
		{"search default k", "/v1/search?q=legal", 200},
		{"search valid k", "/v1/search?q=legal&k=3", 200},
		{"search non-integer k", "/v1/search?q=legal&k=abc", 400},
		{"search negative k", "/v1/search?q=legal&k=-1", 400},
		{"search zero k", "/v1/search?q=legal&k=0", 400},
		{"search float k", "/v1/search?q=legal&k=1.5", 400},
		{"related default k", "/v1/related?id=" + ids[0], 200},
		{"related valid k", "/v1/related?id=" + ids[0] + "&k=2", 200},
		{"related non-integer k", "/v1/related?id=" + ids[0] + "&k=abc", 400},
		{"related negative k", "/v1/related?id=" + ids[0] + "&k=-7", 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("GET %s = %d, want %d", tc.url, resp.StatusCode, tc.want)
			}
			if tc.want == 400 {
				var he httpError
				if err := json.NewDecoder(resp.Body).Decode(&he); err != nil {
					t.Fatalf("400 body not a JSON error envelope: %v", err)
				}
				if !strings.Contains(he.Error, "k") {
					t.Fatalf("error %q does not name the parameter", he.Error)
				}
			}
		})
	}
}

// TestWriteErrStatusMapping pins the error→status table, including the
// context errors that used to collapse into 500.
func TestWriteErrStatusMapping(t *testing.T) {
	s := NewWith(nil, Config{Logger: log.New(io.Discard, "", 0)})
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"not found", registry.ErrNotFound, http.StatusNotFound},
		{"duplicate", registry.ErrDuplicate, http.StatusConflict},
		{"deadline exceeded", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"canceled", context.Canceled, http.StatusRequestTimeout},
		{"wrapped deadline", errors.New("x: " + context.DeadlineExceeded.Error()), http.StatusInternalServerError},
		{"unknown", errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.writeErr(rec, tc.err)
			if rec.Code != tc.want {
				t.Fatalf("writeErr(%v) = %d, want %d", tc.err, rec.Code, tc.want)
			}
			var he httpError
			if err := json.Unmarshal(rec.Body.Bytes(), &he); err != nil || he.Error == "" {
				t.Fatalf("error envelope missing: %q (%v)", rec.Body.String(), err)
			}
		})
	}
}

// TestWriteErrCountsTimeouts asserts the timeout counters move with the
// context-error mappings.
func TestWriteErrCountsTimeouts(t *testing.T) {
	s := NewWith(nil, Config{Logger: log.New(io.Discard, "", 0)})
	deadlineBefore := timeoutCounter("deadline").Value()
	canceledBefore := timeoutCounter("canceled").Value()
	s.writeErr(httptest.NewRecorder(), context.DeadlineExceeded)
	s.writeErr(httptest.NewRecorder(), context.Canceled)
	if got := timeoutCounter("deadline").Value(); got != deadlineBefore+1 {
		t.Fatalf("deadline counter = %d, want %d", got, deadlineBefore+1)
	}
	if got := timeoutCounter("canceled").Value(); got != canceledBefore+1 {
		t.Fatalf("canceled counter = %d, want %d", got, canceledBefore+1)
	}
}

// TestQueryDeadlineMapsTo504 drives handleQuery with an already-expired
// request context: the query executor surfaces context.DeadlineExceeded and
// the handler must answer 504, not the 400 it used to return for every
// QueryContext error.
func TestQueryDeadlineMapsTo504(t *testing.T) {
	lk, err := lake.Open(lake.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lk.Close() })
	s := NewWith(lk, Config{Logger: log.New(io.Discard, "", 0)})

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := httptest.NewRequest("GET", "/v1/query?q=FIND+MODELS+LIMIT+5", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.handleQuery(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired query = %d, want 504 (body %q)", rec.Code, rec.Body.String())
	}

	// A canceled (client went away) context maps to 408.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	req = httptest.NewRequest("GET", "/v1/query?q=FIND+MODELS+LIMIT+5", nil).WithContext(cctx)
	rec = httptest.NewRecorder()
	s.handleQuery(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("canceled query = %d, want 408 (body %q)", rec.Code, rec.Body.String())
	}

	// A plain parse error is still the client's 400.
	req = httptest.NewRequest("GET", "/v1/query?q=NONSENSE", nil)
	rec = httptest.NewRecorder()
	s.handleQuery(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("parse error = %d, want 400", rec.Code)
	}
}

// failingWriter drops the connection mid-body, the way a gone client does.
type failingWriter struct {
	h      http.Header
	status int
}

func (f *failingWriter) Header() http.Header       { return f.h }
func (f *failingWriter) WriteHeader(code int)      { f.status = code }
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestWriteJSONEncodeErrorCounted asserts a failed response encode is logged
// and counted instead of vanishing.
func TestWriteJSONEncodeErrorCounted(t *testing.T) {
	var logBuf bytes.Buffer
	logger := log.New(&logBuf, "", 0)
	before := mEncodeErrs.Value()
	writeJSONLogged(&failingWriter{h: make(http.Header)}, http.StatusOK, map[string]string{"a": "b"}, logger)
	if got := mEncodeErrs.Value(); got != before+1 {
		t.Fatalf("encode error counter = %d, want %d", got, before+1)
	}
	if !strings.Contains(logBuf.String(), "response encode failed") {
		t.Fatalf("encode failure not logged: %q", logBuf.String())
	}
	// A nil logger must not panic; the error goes to the process default.
	writeJSON(&failingWriter{h: make(http.Header)}, http.StatusOK, map[string]string{"a": "b"})
	if got := mEncodeErrs.Value(); got != before+2 {
		t.Fatalf("encode error counter = %d, want %d", got, before+2)
	}
}

// TestMetricsEndpoint asserts GET /metrics serves Prometheus text including
// the per-route latency histograms and the storage/cache families the lower
// layers register.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _, _ := testServer(t)
	// Generate at least one observed request so per-route series exist.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		"# TYPE http_request_duration_seconds histogram",
		`http_request_duration_seconds_bucket{route="/healthz",le="+Inf"}`,
		`http_requests_total{class="2xx",method="GET",route="/healthz"}`,
		"lake_embed_cache_hits_total",
		"lake_embed_cache_misses_total",
		"# TYPE kvstore_fsync_duration_seconds histogram",
		"kvstore_fsync_duration_seconds_count",
		"# TYPE kvstore_commit_batch_size histogram",
		"kvstore_commit_batch_size_count",
		"# TYPE kvstore_commit_waiters gauge",
		"kvstore_commit_waiters",
		"http_requests_inflight",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q in:\n%s", want, text)
		}
	}
	// Basic exposition-format sanity: every non-comment line is "name value"
	// or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

// TestRequestIDHeader pins accept-or-generate semantics for X-Request-ID.
func TestRequestIDHeader(t *testing.T) {
	ts, _, _, _ := testServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied-id" {
		t.Fatalf("request id not propagated: %q", got)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got == "" {
		t.Fatal("no request id generated")
	}
}

// TestAccessLogLines asserts the access log emits one parseable JSON line
// per request with the route template, status, and the request ID the client
// saw.
func TestAccessLogLines(t *testing.T) {
	lk, err := lake.Open(lake.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lk.Close() })
	var buf bytes.Buffer
	s := NewWith(lk, Config{AccessLog: &buf, Logger: log.New(io.Discard, "", 0)})
	h := s.Handler()

	req := httptest.NewRequest("GET", "/v1/models/m-does-not-exist", nil)
	req.Header.Set("X-Request-ID", "log-test-id")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}

	var entry obs.AccessEntry
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &entry); err != nil {
		t.Fatalf("access log line not JSON: %v (%q)", err, buf.String())
	}
	if entry.RequestID != "log-test-id" {
		t.Fatalf("logged request id = %q", entry.RequestID)
	}
	if entry.Status != http.StatusNotFound {
		t.Fatalf("logged status = %d", entry.Status)
	}
	if entry.Route != "/v1/models/{id}" {
		t.Fatalf("logged route = %q", entry.Route)
	}
	if entry.Method != "GET" || entry.Path != "/v1/models/m-does-not-exist" {
		t.Fatalf("logged method/path = %q %q", entry.Method, entry.Path)
	}
}

// TestTimeoutMiddleware504Counted asserts a request killed by the
// per-request deadline surfaces as 504 and moves the timeout counter.
func TestTimeoutMiddleware504Counted(t *testing.T) {
	before := timeoutCounter("deadline").Value()
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "too late"})
	})
	h := timeoutMiddleware(10*time.Millisecond, slow)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/graph", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request = %d, want 504", rec.Code)
	}
	if got := timeoutCounter("deadline").Value(); got <= before {
		t.Fatalf("deadline counter = %d, want > %d", got, before)
	}
}

// TestRouteLabelBoundsCardinality pins the path→route normalization that
// keeps metric labels bounded.
func TestRouteLabelBoundsCardinality(t *testing.T) {
	cases := []struct{ path, want string }{
		{"/healthz", "/healthz"},
		{"/v1/search", "/v1/search"},
		{"/v1/models/m-000042", "/v1/models/{id}"},
		{"/v1/models/m-000042/card", "/v1/models/{id}/card"},
		{"/v1/models/m-000042/audit", "/v1/models/{id}/audit"},
		{"/v1/models/m-000042/unknown", "other"},
		{"/debug/pprof/heap", "/debug/pprof"},
		{"/totally/unknown", "other"},
	}
	for _, tc := range cases {
		r := httptest.NewRequest("GET", tc.path, nil)
		if got := routeLabel(r); got != tc.want {
			t.Fatalf("routeLabel(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestSeriesForMemoised pins the per-request metric lookup: the memoised
// handles are the registry's own series (same names, same label sets), a
// steady-state lookup allocates nothing, and a client-chosen method token is
// served but never grows the memo.
func TestSeriesForMemoised(t *testing.T) {
	rs := seriesFor("/healthz", "GET", "2xx")
	if want := obs.Default().Counter("http_requests_total",
		obs.L("class", "2xx"), obs.L("method", "GET"), obs.L("route", "/healthz")); rs.requests != want {
		t.Fatal("memoised counter is not the registry's series")
	}
	if want := obs.Default().Histogram("http_request_duration_seconds", nil, obs.L("route", "/healthz")); rs.duration != want {
		t.Fatal("memoised histogram is not the registry's series")
	}
	if a := testing.AllocsPerRun(100, func() { seriesFor("/healthz", "GET", statusClass(200)) }); a != 0 {
		t.Fatalf("memoised lookup allocates %v per run", a)
	}
	size := func() int {
		seriesMemo.RLock()
		defer seriesMemo.RUnlock()
		return len(seriesMemo.m)
	}
	before := size()
	if seriesFor("other", "BREW", "4xx").requests == nil {
		t.Fatal("unknown method got no series")
	}
	if after := size(); after != before {
		t.Fatalf("memo grew %d -> %d on a non-standard method", before, after)
	}
	for status, want := range map[int]string{99: "other", 100: "1xx", 204: "2xx", 302: "3xx", 404: "4xx", 599: "5xx", 600: "other", -1: "other"} {
		if got := statusClass(status); got != want {
			t.Fatalf("statusClass(%d) = %q, want %q", status, got, want)
		}
	}
}
