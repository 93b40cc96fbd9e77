package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dsm96/internal/core"
	"dsm96/internal/pipeline"
	"dsm96/internal/sim"
)

// Options configures a Server. Zero values pick safe defaults.
type Options struct {
	// Workers is the execution pool size (default 2). The pool is the
	// capacity bound: the server never spawns per-request goroutines for
	// simulation work.
	Workers int
	// QueueCap bounds the backlog of accepted-but-unstarted jobs
	// (default 16). A full queue is reported as 429 + Retry-After, the
	// explicit backpressure contract — never an unbounded buffer.
	QueueCap int
	// MaxAttempts quarantines a job after this many failed execution
	// attempts (default 3): a poisoned spec stops consuming the pool.
	MaxAttempts int
	// RetryBase is the first retry delay; subsequent retries back off
	// exponentially, capped at 32x (default 1s).
	RetryBase time.Duration
	// JobTimeout is the wall-clock ceiling per attempt; 0 disables. The
	// in-simulation watchdog already bounds simulated-time stalls, so
	// this only guards against runaway host-side work.
	JobTimeout time.Duration
	// RunsDir, when set, exposes PR 8's dated run folders read-only
	// under /runs/ with manifest-anchored hash verification.
	RunsDir string
	// Run replaces the simulation runner (tests). nil runs the real
	// deterministic simulation.
	Run func(*ResolvedJob) (*core.Result, error)
}

// Stats is the /statsz payload.
type Stats struct {
	Submitted    uint64          `json:"submitted"`
	CacheHits    uint64          `json:"cache_hits"`
	CacheMisses  uint64          `json:"cache_misses"`
	Deduped      uint64          `json:"deduped"`
	Completed    uint64          `json:"completed"`
	FailedRuns   uint64          `json:"failed_runs"`
	Retried      uint64          `json:"retried"`
	Quarantined  uint64          `json:"quarantined"`
	RejectedBusy uint64          `json:"rejected_busy"`
	QueueDepth   int             `json:"queue_depth"`
	Running      int             `json:"running"`
	Degraded     bool            `json:"degraded"`
	Draining     bool            `json:"draining"`
	Recovery     *RecoveryReport `json:"recovery,omitempty"`
}

// JobStatus is the job-facing response envelope: the journal record's
// view plus submission-time flags.
type JobStatus struct {
	Key      string        `json:"key"`
	State    string        `json:"state"`
	Cached   bool          `json:"cached"`
	Attempts int           `json:"attempts"`
	Error    string        `json:"error,omitempty"`
	Stall    *StallSummary `json:"stall,omitempty"`
	Result   *JobResult    `json:"result,omitempty"`
}

// jobEntry tracks one in-flight job across queueing and retries. done
// closes exactly once, when the job reaches a resting state (done,
// quarantined, or abandoned by drain/degraded mode) — long-poll waiters
// block on it.
type jobEntry struct {
	job  *ResolvedJob
	rec  *JobRecord
	done chan struct{}
}

// Server is the simulation job server. All producer-side queue
// operations happen under mu with an explicit capacity check, so the
// buffered channel send never blocks; workers are pure consumers.
type Server struct {
	store *Store
	opts  Options

	mu       sync.Mutex
	inflight map[string]*jobEntry
	queue    chan *jobEntry
	draining bool
	stats    Stats
	wg       sync.WaitGroup
	// timers tracks armed retry timers and the entry each would requeue,
	// so Drain can park those entries instead of leaving their waiters
	// hanging.
	timers map[*retryTimer]struct{}
}

// retryTimer pairs an armed backoff timer with the entry it requeues.
// e is written before the timer is armed (the callback may see it
// immediately); t is written and read only under Server.mu.
type retryTimer struct {
	e *jobEntry
	t *time.Timer
}

// NewServer opens (or reopens) the store under root, runs the crash
// recovery scan, requeues the interrupted backlog, and starts the
// worker pool.
func NewServer(root string, opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 16
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = time.Second
	}
	st, err := OpenStore(root)
	if err != nil {
		return nil, err
	}
	rep, backlog, err := st.Recover(opts.MaxAttempts)
	if err != nil {
		return nil, err
	}
	if len(backlog) > opts.QueueCap {
		// The queue must hold the whole recovered backlog: those jobs
		// were already accepted in a previous life and must not be
		// dropped or deadlock startup.
		opts.QueueCap = len(backlog)
	}
	s := &Server{
		store:    st,
		opts:     opts,
		inflight: make(map[string]*jobEntry),
		queue:    make(chan *jobEntry, opts.QueueCap),
		timers:   make(map[*retryTimer]struct{}),
	}
	s.stats.Recovery = rep
	for _, rec := range backlog {
		var spec JobSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			continue // recovery already dropped corrupt records; be safe
		}
		job, err := spec.Resolve()
		if err != nil || job.Key != rec.Key {
			continue
		}
		// The lenient decode above skips fields older specs carried;
		// journal the canonical form from here on, so the finished
		// record matches later submissions of the same job.
		rec.Spec = job.Canonical
		e := &jobEntry{job: job, rec: rec, done: make(chan struct{})}
		s.inflight[rec.Key] = e
		s.queue <- e
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store exposes the underlying store (tests, stats).
func (s *Server) Store() *Store { return s.store }

// Drain stops accepting jobs, lets the pool finish every accepted job
// (queued and running), and returns. Pending retry timers are cancelled
// — their jobs stay journaled as failed and a restart's recovery scan
// requeues them.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.stats.Draining = true
	// Timers we stop before they fire: park their entries here. Timers
	// already firing observe draining under the lock and park their own.
	var parked []*jobEntry
	for rt := range s.timers {
		if rt.t.Stop() {
			parked = append(parked, rt.e)
		}
	}
	s.timers = map[*retryTimer]struct{}{}
	close(s.queue)
	s.mu.Unlock()
	for _, e := range parked {
		s.finish(e)
	}
	s.wg.Wait()
}

// worker drains the queue until it is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for e := range s.queue {
		s.execute(e)
	}
}

// finish parks the entry at its resting state and wakes waiters.
func (s *Server) finish(e *jobEntry) {
	s.mu.Lock()
	delete(s.inflight, e.job.Key)
	s.mu.Unlock()
	close(e.done)
}

// runJob invokes the runner under the wall-clock ceiling. On timeout
// the attempt is abandoned: the goroutine's eventual result goes to a
// buffered channel nobody reads, and — critically — the store is only
// ever written by this function's caller after it returns, so a late
// finisher cannot race a retry's journal transitions. A runner panic
// (a simulated process body's panic surfaces through Engine.Run) is a
// failed attempt, not a crash of the server.
func (s *Server) runJob(job *ResolvedJob) (*core.Result, error) {
	runner := s.opts.Run
	if runner == nil {
		runner = runSimulation
	}
	run := func(job *ResolvedJob) (res *core.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("serve: runner panicked: %v", r)
			}
		}()
		return runner(job)
	}
	if s.opts.JobTimeout <= 0 {
		return run(job)
	}
	type outcome struct {
		res *core.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := run(job)
		ch <- outcome{res, err}
	}()
	timer := time.NewTimer(s.opts.JobTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-timer.C:
		return nil, fmt.Errorf("serve: attempt exceeded job timeout %s", s.opts.JobTimeout)
	}
}

// runSimulation is the real runner: build the app at the job's scale
// and execute the deterministic simulation.
func runSimulation(job *ResolvedJob) (*core.Result, error) {
	app, err := job.AppInstance()
	if err != nil {
		return nil, err
	}
	return core.Run(job.Cfg, job.Spec, app)
}

// execute runs one attempt of an accepted job and journals every
// transition write-ahead: running before the run, done/failed after.
func (s *Server) execute(e *jobEntry) {
	rec := e.rec
	rec.State = StateRunning
	rec.Attempts++
	if err := s.store.PutRecord(rec); err != nil {
		// Degraded: the journal cannot advance, so the job must not run
		// (its completion could not be recorded). The on-disk record is
		// still pending; a restart requeues it.
		s.countDegraded()
		s.finish(e)
		return
	}

	res, runErr := s.runJob(e.job)
	if runErr == nil && res != nil {
		sha, _, err := s.store.PutObject(func(w io.Writer) error {
			return res.Metrics().WriteJSON(w)
		})
		if err == nil {
			var sum *JobResult
			sum, err = SummarizeResult(res, sha)
			if err == nil {
				rec.State = StateDone
				rec.Error = ""
				rec.Stall = nil
				rec.Result = sum
				err = s.store.PutRecord(rec)
			}
		}
		if err != nil {
			s.countDegraded()
			s.finish(e)
			return
		}
		s.store.WriteManifest() // ledger is derived; failure latches degraded mode but the result stands
		s.mu.Lock()
		s.stats.Completed++
		s.stats.Degraded = s.store.Failed()
		s.mu.Unlock()
		s.finish(e)
		return
	}

	// The attempt failed: a watchdog stall (structured report attached),
	// a validation mismatch, a runner panic, or the wall-clock ceiling.
	rec.State = StateFailed
	rec.Error = "run returned no result"
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	rec.Stall = nil
	rec.Result = nil
	var serr *sim.StallError
	if errors.As(runErr, &serr) && res != nil {
		rec.Stall = summarizeStall(res.Stall)
	}
	quarantine := rec.Attempts >= s.opts.MaxAttempts
	if quarantine {
		rec.State = StateQuarantined
	}
	if err := s.store.PutRecord(rec); err != nil {
		s.countDegraded()
		s.finish(e)
		return
	}
	s.mu.Lock()
	s.stats.FailedRuns++
	if quarantine {
		s.stats.Quarantined++
	}
	draining := s.draining
	s.mu.Unlock()
	if quarantine || draining {
		// Quarantined jobs rest; under drain the failed record waits for
		// the next boot's recovery scan instead of a timer.
		s.finish(e)
		return
	}
	s.scheduleRetry(e)
}

// scheduleRetry requeues a failed job after capped exponential backoff.
// The entry stays inflight (dedupe still applies; waiters keep
// waiting).
func (s *Server) scheduleRetry(e *jobEntry) {
	backoff := s.opts.RetryBase << uint(e.rec.Attempts-1)
	if maxB := s.opts.RetryBase * 32; backoff > maxB || backoff <= 0 {
		backoff = maxB
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.finish(e)
		return
	}
	s.armRetry(e, backoff)
	s.mu.Unlock()
}

// armRetry arms a backoff timer for e. Caller holds s.mu; the entry is
// written into the token before arming so the callback — which may fire
// immediately — never races the registration.
func (s *Server) armRetry(e *jobEntry, d time.Duration) {
	rt := &retryTimer{e: e}
	rt.t = time.AfterFunc(d, func() { s.retryFire(rt) })
	s.timers[rt] = struct{}{}
}

// retryFire moves a backed-off job back onto the queue, or — if the
// queue is full right now — re-arms itself rather than blocking the
// timer goroutine (the producer-never-blocks invariant holds here too).
func (s *Server) retryFire(rt *retryTimer) {
	e := rt.e
	s.mu.Lock()
	delete(s.timers, rt)
	if s.draining {
		s.mu.Unlock()
		s.finish(e)
		return
	}
	if len(s.queue) >= cap(s.queue) {
		s.armRetry(e, s.opts.RetryBase)
		s.mu.Unlock()
		return
	}
	s.stats.Retried++
	s.queue <- e
	s.mu.Unlock()
}

// countDegraded notes a store write failure in the stats.
func (s *Server) countDegraded() {
	s.mu.Lock()
	s.stats.Degraded = true
	s.mu.Unlock()
}

// Handler builds the HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{key}", s.handleGetJob)
	mux.HandleFunc("GET /artifacts/{sha}", s.handleArtifact)
	mux.HandleFunc("GET /runs/", s.handleRunsIndex)
	mux.HandleFunc("GET /runs/{folder}/{path...}", s.handleRunFile)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// status converts a journal record into the response envelope.
func status(rec *JobRecord, cached bool) *JobStatus {
	return &JobStatus{
		Key:      rec.Key,
		State:    rec.State,
		Cached:   cached,
		Attempts: rec.Attempts,
		Error:    rec.Error,
		Stall:    rec.Stall,
		Result:   rec.Result,
	}
}

// handleSubmit is POST /jobs: resolve, dedupe, memoize, or enqueue with
// backpressure. ?wait=1 long-polls until the job rests.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decode job spec: %v", err)
		return
	}
	job, err := spec.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wait := r.URL.Query().Get("wait") == "1"

	s.mu.Lock()
	s.stats.Submitted++
	// In-flight dedupe: a duplicate of a queued/running/retrying job
	// attaches to the existing entry instead of consuming queue space.
	if e, ok := s.inflight[job.Key]; ok {
		s.stats.Deduped++
		s.mu.Unlock()
		s.respondEntry(w, r, e, wait)
		return
	}
	s.mu.Unlock()

	// Memoized? The journal is the cache index; done records answer
	// immediately (even in degraded mode — reads still work).
	rec, err := s.store.GetRecord(job.Key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if rec != nil && !equalCanonical(rec.Spec, job.Canonical) {
		writeError(w, http.StatusInternalServerError, "job key collision on %s", job.Key)
		return
	}
	if rec != nil && (rec.State == StateDone || rec.State == StateQuarantined) {
		s.mu.Lock()
		if rec.State == StateDone {
			s.stats.CacheHits++
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, status(rec, rec.State == StateDone))
		return
	}

	s.mu.Lock()
	// Re-check under the lock: another submitter may have enqueued it
	// while we read the store.
	if e, ok := s.inflight[job.Key]; ok {
		s.stats.Deduped++
		s.mu.Unlock()
		s.respondEntry(w, r, e, wait)
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.store.Failed() {
		s.stats.Degraded = true
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "degraded read-only mode: store write path failed; cached results remain available")
		return
	}
	if len(s.queue) >= cap(s.queue) {
		s.stats.RejectedBusy++
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full (%d queued); retry later", cap(s.queue))
		return
	}
	s.stats.CacheMisses++
	if rec == nil {
		rec = &JobRecord{Schema: RecordSchema, Key: job.Key, Spec: job.Canonical, State: StatePending}
	} else {
		rec.State = StatePending // pre-recovery failed record resubmitted
	}
	// Write-ahead: journal pending before the queue learns about the
	// job, so an accepted job survives a crash even if it never ran.
	if err := s.store.PutRecord(rec); err != nil {
		s.stats.Degraded = true
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "degraded read-only mode: %v", err)
		return
	}
	e := &jobEntry{job: job, rec: rec, done: make(chan struct{})}
	s.inflight[job.Key] = e
	s.queue <- e // capacity checked above under mu; all producers lock
	s.mu.Unlock()
	s.respondEntry(w, r, e, wait)
}

// respondEntry answers a submit that attached to an in-flight entry:
// 202 immediately, or long-poll until the job rests.
func (s *Server) respondEntry(w http.ResponseWriter, r *http.Request, e *jobEntry, wait bool) {
	if wait {
		select {
		case <-e.done:
		case <-r.Context().Done():
			writeError(w, http.StatusRequestTimeout, "client went away while waiting")
			return
		}
		rec, err := s.store.GetRecord(e.job.Key)
		if err != nil || rec == nil {
			writeError(w, http.StatusInternalServerError, "job %s finished but its record is unreadable: %v", e.job.Key, err)
			return
		}
		writeJSON(w, http.StatusOK, status(rec, false))
		return
	}
	// Answer 202 from the journal, not from the entry: a worker may be
	// mutating the in-memory record concurrently, and the journal is
	// always at least as advanced as any consistent view we could take.
	rec, err := s.store.GetRecord(e.job.Key)
	if err != nil || rec == nil {
		rec = &JobRecord{Schema: RecordSchema, Key: e.job.Key, State: StatePending}
	}
	writeJSON(w, http.StatusAccepted, status(rec, false))
}

// handleGetJob is GET /jobs/{key}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	rec, err := s.store.GetRecord(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if rec == nil {
		writeError(w, http.StatusNotFound, "no job %s", key)
		return
	}
	writeJSON(w, http.StatusOK, status(rec, rec.State == StateDone))
}

// handleArtifact is GET /artifacts/{sha}: a verified read from the
// content-addressed store.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	sha := r.PathValue("sha")
	data, err := s.store.GetObject(sha)
	if err != nil {
		if os.IsNotExist(err) {
			writeError(w, http.StatusNotFound, "no artifact %s", sha)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-SHA256", sha)
	w.Write(data)
}

// handleRunsIndex is GET /runs/: the dated run folders available.
func (s *Server) handleRunsIndex(w http.ResponseWriter, r *http.Request) {
	if s.opts.RunsDir == "" {
		writeError(w, http.StatusNotFound, "no runs directory configured")
		return
	}
	ents, err := os.ReadDir(s.opts.RunsDir)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	folders := []string{}
	for _, e := range ents {
		if e.IsDir() {
			folders = append(folders, e.Name())
		}
	}
	sort.Strings(folders)
	writeJSON(w, http.StatusOK, map[string]any{"runs": folders})
}

// handleRunFile is GET /runs/{folder}/{path...}: serve a dated run
// folder through its manifest. The manifest and cells.csv are served
// raw (the manifest IS the trust anchor); every metrics artifact is
// verified against the SHA-256 the manifest records before a byte goes
// out, and files the manifest does not vouch for are 404 — the
// content-addressed discipline of the store applied to PR 8's folders.
func (s *Server) handleRunFile(w http.ResponseWriter, r *http.Request) {
	if s.opts.RunsDir == "" {
		writeError(w, http.StatusNotFound, "no runs directory configured")
		return
	}
	folder, rel := r.PathValue("folder"), r.PathValue("path")
	if strings.Contains(folder, "..") || strings.Contains(rel, "..") || path.IsAbs(rel) {
		writeError(w, http.StatusBadRequest, "malformed path")
		return
	}
	dir := filepath.Join(s.opts.RunsDir, folder)
	manData, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		writeError(w, http.StatusNotFound, "run %s has no manifest", folder)
		return
	}
	if rel == "manifest.json" {
		w.Header().Set("Content-Type", "application/json")
		w.Write(manData)
		return
	}
	var man pipeline.Manifest
	if err := json.Unmarshal(manData, &man); err != nil || man.Schema != pipeline.ManifestSchema {
		writeError(w, http.StatusInternalServerError, "run %s: bad manifest: %v", folder, err)
		return
	}
	if rel == "cells.csv" {
		data, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			writeError(w, http.StatusNotFound, "run %s has no cells.csv", folder)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.Write(data)
		return
	}
	for _, c := range man.Cells {
		if c.MetricsFile != filepath.ToSlash(rel) && c.MetricsFile != rel {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(c.MetricsFile)))
		if err != nil {
			writeError(w, http.StatusNotFound, "run %s: %s listed in manifest but missing", folder, rel)
			return
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.MetricsSHA256 {
			writeError(w, http.StatusInternalServerError,
				"run %s: %s fails verification (manifest says %s, content hashes to %s)", folder, rel, c.MetricsSHA256, got)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Content-SHA256", c.MetricsSHA256)
		w.Write(data)
		return
	}
	writeError(w, http.StatusNotFound, "run %s: manifest does not vouch for %s", folder, rel)
}

// handleHealthz is GET /healthz: 200 while healthy, 503 degraded or
// draining (load balancers should stop sending work, reads still
// answer).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	degraded := s.store.Failed()
	st := map[string]any{"ok": !degraded && !draining, "degraded": degraded, "draining": draining}
	code := http.StatusOK
	if degraded || draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// handleStatsz is GET /statsz.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.stats
	st.QueueDepth = len(s.queue)
	st.Running = len(s.inflight) - len(s.queue)
	if st.Running < 0 {
		st.Running = 0
	}
	st.Degraded = s.store.Failed()
	st.Draining = s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, &st)
}
