package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer // last response body, reused
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply. The returned body is only
// valid until the next call. Anything but 200 for a read and 201 for an
// ingest batch (207 would mean some models were refused) is an error: the
// workloads are chosen so that no operation fails.
func (c *client) do(path string, body []byte) ([]byte, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	want := http.StatusOK
	if body != nil {
		want = http.StatusCreated
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, c.buf.Bytes())
	}
	return c.buf.Bytes(), nil
}

// recorder holds what the timed pass measured. Each client owns one, so the
// hot loop takes no lock; merge pools them afterwards.
type recorder struct {
	lat       [numClasses][]float64 // ms per request
	win       [numClasses][]int     // 1 + the 1-s window of the mix phase the request was sent in; 0 outside the phase
	window    int                   // what timed stores in win
	windows   []int                 // read completions per 1-s window of the mix phase
	lateness  []float64             // ms the paced writer sent after its due instant
	attempted int
	failures  []string // offending requests, first few kept
	failed    int
	respBytes int // size of the last related response
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.win[c] = append(r.win[c], o.win[c]...)
	}
	for len(r.windows) < len(o.windows) {
		r.windows = append(r.windows, 0)
	}
	for i, n := range o.windows {
		r.windows[i] += n
	}
	r.lateness = append(r.lateness, o.lateness...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
	if o.respBytes > 0 {
		r.respBytes = o.respBytes
	}
}

// busiest returns the fifth of the mix phase's 1-s windows in which the most
// reads completed, as a set of the 1-based numbers stored in win.
//
// The end-to-end latencies are taken over the requests sent in those seconds:
// <class>_p10_ms, the floor, and <class>_p50_ms, the median. On this class of
// VM neighbours slow requests by 30–70 % in bursts that come and go for
// minutes, with no steal time to show for it, so a statistic over a whole
// run measures the neighbours: on identical code, over twelve runs in a
// noisy hour, the all-sample p50 of point reads ranged 0.087–0.128 ms
// (interquartile spread 27 %), the p50 of the busiest seconds 0.080–0.126
// (16 %) and their p10 0.061–0.079 (6 %). A burst can only add time: the
// fastest requests of the least disturbed seconds estimate the undisturbed
// machine, and a change that makes every request slower moves them as much
// as any other, so the floor carries the tight bound. What it cannot see — a
// stall, a collection, a lock or a slow path that only some requests meet —
// moves the median, which holds only a wide bound. Medians and tails over
// all samples are reported beside them as loadgen.<class>.p50_all_ms and
// .p99_ms, gated by nothing.
func (r *recorder) busiest() map[int]bool {
	order := make([]int, len(r.windows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r.windows[order[a]] > r.windows[order[b]] })
	set := map[int]bool{}
	for _, w := range order[:(len(order)+4)/5] {
		set[w+1] = true
	}
	return set
}

// in returns the class's latencies of requests sent in the given windows.
func (r *recorder) in(c class, windows map[int]bool) []float64 {
	var out []float64
	for i, w := range r.win[c] {
		if windows[w] {
			out = append(out, r.lat[c][i])
		}
	}
	return out
}

// timed sends req on c and records its latency from start (the due instant
// of a paced request, else the send instant).
func (r *recorder) timed(c *client, req request, body []byte, start time.Time) []byte {
	r.attempted++
	resp, err := c.do(req.path, body)
	r.lat[req.cls] = append(r.lat[req.cls], float64(time.Since(start))/1e6)
	r.win[req.cls] = append(r.win[req.cls], r.window)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	return resp
}

// readLoop is the closed-loop read mix: the next request goes out when the
// previous reply is in. models reports how many models are acked so far.
func (r *recorder) readLoop(ctx context.Context, c *client, s *schedule, stream int, start time.Time, d time.Duration, models *atomic.Int64) {
	r.windows = make([]int, int(d/time.Second))
	defer func() { r.window = 0 }()
	for i := 0; ; i++ {
		now := time.Now()
		if now.Sub(start) >= d || ctx.Err() != nil {
			return
		}
		r.window = 1 + int(now.Sub(start)/time.Second)
		req := s.read(stream, i, int(models.Load()))
		resp := r.timed(c, req, nil, now)
		if req.cls == clsRelated && resp != nil {
			r.respBytes = len(resp)
		}
		if w := int(time.Since(start) / time.Second); w < len(r.windows) {
			r.windows[w]++
		}
	}
}

// postBatch posts one ingest batch as the only writer. The batch is acked —
// and visible to the readers' schedule — once every model in it came back
// with the ID the schedule expects for its position.
func (r *recorder) postBatch(c *client, body []byte, perBatch int, start time.Time, models *atomic.Int64) {
	resp := r.timed(c, request{cls: clsIngestBatch, path: "/v1/models/batch"}, body, start)
	if resp == nil {
		return
	}
	var ack struct {
		Results []struct {
			Record struct {
				ID string `json:"id"`
			} `json:"record"`
		} `json:"results"`
	}
	if err := json.Unmarshal(resp, &ack); err != nil || len(ack.Results) != perBatch {
		r.fail("POST /v1/models/batch: ack for %d models unreadable (%v): %.200s", perBatch, err, resp)
		return
	}
	first := int(models.Load())
	for i, res := range ack.Results {
		if res.Record.ID != modelID(first+i) {
			r.fail("POST /v1/models/batch: model %d minted %q, schedule expects %s", first+i, res.Record.ID, modelID(first+i))
			return
		}
	}
	models.Add(int64(perBatch))
}

// pacedWriter posts bodies[i] at start + i·period whether or not the lake
// kept up — an ingest pipeline on a schedule. Latency counts from the due
// instant, so a stall charges every batch it delays.
func (r *recorder) pacedWriter(ctx context.Context, c *client, bodies [][]byte, perBatch int, start time.Time, period time.Duration, models *atomic.Int64) {
	for i, body := range bodies {
		due := start.Add(time.Duration(i) * period)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		r.lateness = append(r.lateness, float64(time.Since(due))/1e6)
		r.postBatch(c, body, perBatch, due, models)
	}
}

// closedWriter posts bodies back to back and returns the elapsed time.
func (r *recorder) closedWriter(ctx context.Context, c *client, bodies [][]byte, perBatch int, models *atomic.Int64) time.Duration {
	start := time.Now()
	for _, body := range bodies {
		if ctx.Err() != nil {
			break
		}
		r.postBatch(c, body, perBatch, time.Now(), models)
	}
	return time.Since(start)
}

// fixedCount sends exactly n requests of one class per client, closed loop.
func fixedCount(ctx context.Context, clients []*client, recs []*recorder, s *schedule, cls class, stream, n, models int) {
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; i < n && ctx.Err() == nil; i++ {
				recs[ci].timed(clients[ci], s.of(cls, stream+ci, i, models), nil, time.Now())
			}
		}(ci)
	}
	wg.Wait()
}
