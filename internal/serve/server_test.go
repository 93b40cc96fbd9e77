package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dsm96/internal/core"
	"dsm96/internal/sim"
	"dsm96/internal/stats"
)

// fakeResult builds a deterministic result for a job without running a
// simulation — enough structure for Metrics() and the summaries.
func fakeResult(job *ResolvedJob) *core.Result {
	procs := job.Cfg.Processors
	bd := &stats.Breakdown{RunningTime: 12345, PerProc: make([]*stats.ProcStats, procs)}
	for i := range bd.PerProc {
		ps := &stats.ProcStats{}
		ps.Cycles[stats.Busy] = int64(1000 + i)
		bd.PerProc[i] = ps
	}
	var fp uint64
	for _, b := range []byte(job.Key) {
		fp = fp*131 + uint64(b)
	}
	return &core.Result{
		RunningTime: 12345, Breakdown: bd, AppResult: 1, SeqResult: 1,
		Messages: 7, Bytes: 4096, EventsRun: 99, EventFingerprint: fp,
		Protocol: job.Protocol, App: job.App,
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv, err := NewServer(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		hs.Close()
	})
	return srv, hs, &Client{Base: hs.URL, sleep: func(time.Duration) {}}
}

func tinyJob(app string, procs int) *JobSpec {
	return &JobSpec{Schema: JobSchema, App: app, Protocol: "Base", Scale: "tiny", Procs: procs}
}

// TestServerMemoizesRealRun drives the real simulator once and proves
// the memoization contract end to end: the second submission is a
// cache hit whose fingerprint and artifact are byte-identical to both
// the first run and an in-process core.Run of the same spec.
func TestServerMemoizesRealRun(t *testing.T) {
	_, _, c := newTestServer(t, Options{Workers: 1})
	spec := tinyJob("tsp", 2)

	first, err := c.Submit(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != StateDone || first.Cached || first.Result == nil {
		t.Fatalf("first submission: %+v", first)
	}
	second, err := c.Submit(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached || second.Result == nil {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if first.Result.Fingerprint != second.Result.Fingerprint ||
		first.Result.MetricsSHA256 != second.Result.MetricsSHA256 {
		t.Fatalf("cache hit drifted: %+v vs %+v", first.Result, second.Result)
	}

	// The stored artifact must be byte-identical to a local run's
	// metrics serialization — determinism is what makes the cache sound.
	art, err := c.Artifact(first.Result.MetricsSHA256)
	if err != nil {
		t.Fatal(err)
	}
	job := resolve(t, spec)
	app, err := job.AppInstance()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(job.Cfg, job.Spec, app)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := res.Metrics().WriteJSON(&local); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art, local.Bytes()) {
		t.Fatalf("served artifact (%d bytes) differs from local run metrics (%d bytes)", len(art), local.Len())
	}
	if fp := fmt.Sprintf("%016x", res.EventFingerprint); fp != first.Result.Fingerprint {
		t.Fatalf("served fingerprint %s, local %s", first.Result.Fingerprint, fp)
	}
}

// TestServerDedupesInflight submits the same job from many goroutines
// while the (blocked) runner holds it in flight: exactly one execution,
// every submitter gets the result.
func TestServerDedupesInflight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var runs int
	var mu sync.Mutex
	_, _, c := newTestServer(t, Options{Workers: 1, Run: func(job *ResolvedJob) (*core.Result, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		close(started)
		<-release
		return fakeResult(job), nil
	}})
	spec := tinyJob("radix", 2)

	const waiters = 4
	results := make(chan *JobStatus, waiters)
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			st, err := c.Submit(spec, true)
			if err != nil {
				errs <- err
				return
			}
			results <- st
		}()
	}
	<-started
	close(release)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case st := <-results:
			if st.State != StateDone {
				t.Fatalf("waiter got %+v", st)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("waiter hung")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 {
		t.Fatalf("job ran %d times, want 1", runs)
	}
}

// TestServerBackpressure fills the pool and the queue and asserts the
// explicit 429 + Retry-After contract, then proves the client's
// absorb-and-resubmit loop rides it out.
func TestServerBackpressure(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	_, hs, c := newTestServer(t, Options{Workers: 1, QueueCap: 1, Run: func(job *ResolvedJob) (*core.Result, error) {
		once.Do(func() { close(started) })
		<-release
		return fakeResult(job), nil
	}})

	if _, err := c.Submit(tinyJob("tsp", 2), false); err != nil {
		t.Fatal(err)
	}
	<-started // job A occupies the worker
	if _, err := c.Submit(tinyJob("tsp", 4), false); err != nil {
		t.Fatal(err) // job B occupies the single queue slot
	}
	payload, _ := json.Marshal(tinyJob("tsp", 8))
	resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The client keeps resubmitting (with a shortened pause) and lands
	// the job once the queue clears.
	retrier := &Client{Base: hs.URL, BusyRetries: 1 << 20,
		sleep: func(time.Duration) { time.Sleep(time.Millisecond) }}
	done := make(chan *JobStatus, 1)
	errc := make(chan error, 1)
	go func() {
		st, err := retrier.Submit(tinyJob("tsp", 8), true)
		if err != nil {
			errc <- err
			return
		}
		done <- st
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case st := <-done:
		if st.State != StateDone {
			t.Fatalf("retried submission: %+v", st)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("retried submission hung")
	}
}

// TestServerStallQuarantine feeds a runner that always stalls: the job
// must retry with backoff, persist the structured stall report, and
// rest quarantined after MaxAttempts — never wedge a worker.
func TestServerStallQuarantine(t *testing.T) {
	var runs int
	var mu sync.Mutex
	_, _, c := newTestServer(t, Options{Workers: 1, MaxAttempts: 2, RetryBase: time.Millisecond,
		Run: func(job *ResolvedJob) (*core.Result, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			res := fakeResult(job)
			res.Stall = &core.StallInfo{
				Deadlock: true,
				Report: sim.StallReport{At: 777, LastProgress: 42, Blocked: []sim.BlockedProc{
					{ID: 0, Name: "cpu0", Reason: "barrier", Since: 42},
				}},
				UnackedMessages: 3,
			}
			return res, fmt.Errorf("run: %w", &sim.StallError{Deadlock: true, Report: res.Stall.Report})
		}})

	st, err := c.Submit(tinyJob("water", 2), true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQuarantined {
		t.Fatalf("state %s, want quarantined", st.State)
	}
	if st.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", st.Attempts)
	}
	if st.Stall == nil || !st.Stall.Deadlock || st.Stall.At != 777 || len(st.Stall.Blocked) != 1 {
		t.Fatalf("stall report not persisted: %+v", st.Stall)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 2 {
		t.Fatalf("ran %d times, want 2", runs)
	}

	// A resubmission of a quarantined job answers immediately from the
	// journal — the poisoned spec never touches the pool again.
	st2, err := c.Submit(tinyJob("water", 2), true)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateQuarantined || runs != 2 {
		t.Fatalf("quarantined job re-ran: %+v, runs %d", st2, runs)
	}
}

// TestServerRunnerPanicQuarantine feeds a runner that always panics, on
// both the direct path and the JobTimeout goroutine path: each panic
// must become a failed attempt that retries and then rests quarantined
// with the panic in its error, instead of crashing the server.
func TestServerRunnerPanicQuarantine(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprintf("timeout=%s", timeout), func(t *testing.T) {
			var runs int
			var mu sync.Mutex
			_, _, c := newTestServer(t, Options{Workers: 1, MaxAttempts: 2, RetryBase: time.Millisecond,
				JobTimeout: timeout, Run: func(job *ResolvedJob) (*core.Result, error) {
					mu.Lock()
					runs++
					mu.Unlock()
					panic("body exploded")
				}})
			st, err := c.Submit(tinyJob("tsp", 2), true)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateQuarantined || st.Attempts != 2 {
				t.Fatalf("state %s after %d attempts, want quarantined after 2", st.State, st.Attempts)
			}
			if !strings.Contains(st.Error, "runner panicked: body exploded") {
				t.Fatalf("error %q does not carry the panic", st.Error)
			}
			mu.Lock()
			defer mu.Unlock()
			if runs != 2 {
				t.Fatalf("ran %d times, want 2", runs)
			}
		})
	}
}

// TestServerDegradedMode breaks the store write path and asserts the
// graceful degradation contract: misses answer 503, cached results stay
// readable, /healthz flips unhealthy.
func TestServerDegradedMode(t *testing.T) {
	srv, hs, c := newTestServer(t, Options{Workers: 1, Run: func(job *ResolvedJob) (*core.Result, error) {
		return fakeResult(job), nil
	}})
	warm := tinyJob("em3d", 2)
	first, err := c.Submit(warm, true)
	if err != nil || first.State != StateDone {
		t.Fatalf("warm-up: %+v, %v", first, err)
	}

	srv.Store().setWriteHook(func(string) error { return errors.New("disk full") })
	// The hook fires on the next durable write attempt; force one.
	if err := srv.Store().PutRecord(&JobRecord{Schema: RecordSchema, Key: "probe", State: StatePending}); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("probe write: %v", err)
	}

	if _, err := c.Submit(tinyJob("em3d", 4), true); err == nil {
		t.Fatal("miss accepted in degraded mode")
	}
	hit, err := c.Submit(warm, true)
	if err != nil || !hit.Cached {
		t.Fatalf("cache hit in degraded mode: %+v, %v", hit, err)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d in degraded mode, want 503", resp.StatusCode)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded {
		t.Fatal("statsz does not report degraded")
	}
}

// TestServerDrain proves the SIGTERM path: accepted jobs finish, new
// submissions bounce with 503, and Drain returns.
func TestServerDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	srv, _, c := newTestServer(t, Options{Workers: 1, Run: func(job *ResolvedJob) (*core.Result, error) {
		close(started)
		<-release
		return fakeResult(job), nil
	}})
	spec := tinyJob("ocean", 2)
	waiter := make(chan *JobStatus, 1)
	go func() {
		st, _ := c.Submit(spec, true)
		waiter <- st
	}()
	<-started

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	time.Sleep(10 * time.Millisecond) // let Drain flip the flag
	if _, err := c.Submit(tinyJob("ocean", 4), false); err == nil {
		t.Fatal("submission accepted while draining")
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain hung")
	}
	select {
	case st := <-waiter:
		if st == nil || st.State != StateDone {
			t.Fatalf("in-flight job abandoned by drain: %+v", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after drain")
	}
}

// TestServerRunsEndpoint serves a dated run folder through its
// manifest: listed artifacts verify against their recorded SHA-256,
// corruption is refused loudly, and unlisted files are invisible.
func TestServerRunsEndpoint(t *testing.T) {
	runs := t.TempDir()
	folder := filepath.Join(runs, "20260809-120000-smoke")
	if err := os.MkdirAll(filepath.Join(folder, "metrics"), 0o755); err != nil {
		t.Fatal(err)
	}
	artifact := []byte(`{"schema":"dsm96/run-metrics/v3","fake":true}` + "\n")
	if err := os.WriteFile(filepath.Join(folder, "metrics", "cell-0000.json"), artifact, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(artifact)
	man := map[string]any{
		"schema":     "dsm96/run-manifest/v1",
		"experiment": map[string]any{"name": "smoke"},
		"stamp":      "20260809-120000",
		"host":       map[string]any{},
		"cells": []map[string]any{{
			"id": "c0", "metrics_file": "metrics/cell-0000.json",
			"metrics_sha256": hex.EncodeToString(sum[:]),
		}},
	}
	manData, _ := json.Marshal(man)
	if err := os.WriteFile(filepath.Join(folder, "manifest.json"), manData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folder, "secret.txt"), []byte("not vouched for"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, hs, _ := newTestServer(t, Options{Workers: 1, RunsDir: runs})
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	if code, body := get("/runs/"); code != 200 || !bytes.Contains(body, []byte("20260809-120000-smoke")) {
		t.Fatalf("index: %d %s", code, body)
	}
	if code, body := get("/runs/20260809-120000-smoke/metrics/cell-0000.json"); code != 200 || !bytes.Equal(body, artifact) {
		t.Fatalf("verified read: %d %s", code, body)
	}
	if code, _ := get("/runs/20260809-120000-smoke/manifest.json"); code != 200 {
		t.Fatalf("manifest read: %d", code)
	}
	if code, _ := get("/runs/20260809-120000-smoke/secret.txt"); code != 404 {
		t.Fatalf("unlisted file leaked: %d", code)
	}
	if code, _ := get("/runs/20260809-120000-smoke/metrics/../secret.txt"); code == 200 {
		t.Fatal("path traversal served")
	}

	// Corrupt the artifact on disk: the manifest's hash must refuse it.
	if err := os.WriteFile(filepath.Join(folder, "metrics", "cell-0000.json"), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/runs/20260809-120000-smoke/metrics/cell-0000.json"); code != http.StatusInternalServerError ||
		!bytes.Contains(body, []byte("verification")) {
		t.Fatalf("corrupted artifact served: %d %s", code, body)
	}
}

// TestArtifactNotFound pins the 404 path.
func TestArtifactNotFound(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(hs.URL + "/artifacts/" + "ab"[:2] + string(bytes.Repeat([]byte("0"), 62)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing artifact answered %d", resp.StatusCode)
	}
}
