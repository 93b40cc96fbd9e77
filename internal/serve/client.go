package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dsm96/internal/core"
	"dsm96/internal/experiments"
	"dsm96/internal/params"
	"dsm96/internal/pipeline"
)

// Client is the thin job-server client. cmd/sweep -server and the
// dsmserve client mode ride it; it honors the server's backpressure
// contract (429 + Retry-After) by waiting and resubmitting instead of
// hammering.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8096".
	Base string
	// HTTP overrides the transport (default http.DefaultClient with no
	// overall timeout: job long-polls legitimately take as long as the
	// simulation).
	HTTP *http.Client
	// BusyRetries bounds how many 429 rounds Submit absorbs before
	// giving up (default 120).
	BusyRetries int
	// sleep is indirected for tests.
	sleep func(time.Duration)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) pause(d time.Duration) {
	if c.sleep != nil {
		c.sleep(d)
		return
	}
	time.Sleep(d)
}

// decodeStatus reads a JobStatus or the server's error envelope.
func decodeStatus(resp *http.Response) (*JobStatus, error) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("server: HTTP %d: %.200s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("decode job status: %w", err)
	}
	return &st, nil
}

// Submit posts a job. wait long-polls until the job rests (done,
// quarantined, or abandoned). A 429 busy response is absorbed by
// sleeping out Retry-After and resubmitting — correct because
// submission is idempotent: the job key is content-derived and the
// server dedupes.
func (c *Client) Submit(spec *JobSpec, wait bool) (*JobStatus, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	url := c.Base + "/jobs"
	if wait {
		url += "?wait=1"
	}
	retries := c.BusyRetries
	if retries <= 0 {
		retries = 120
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.httpClient().Post(url, "application/json", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			after := time.Second
			if v, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && v > 0 {
				after = time.Duration(v) * time.Second
			}
			resp.Body.Close()
			if attempt >= retries {
				return nil, fmt.Errorf("server stayed busy through %d submissions", retries)
			}
			c.pause(after)
			continue
		}
		st, err := decodeStatus(resp)
		resp.Body.Close()
		return st, err
	}
}

// Record fetches a job's journal view by key.
func (c *Client) Record(key string) (*JobStatus, error) {
	resp, err := c.httpClient().Get(c.Base + "/jobs/" + key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decodeStatus(resp)
}

// Artifact fetches a content-addressed artifact and verifies it
// locally: trust the hash, not the transport.
func (c *Client) Artifact(sha string) ([]byte, error) {
	resp, err := c.httpClient().Get(c.Base + "/artifacts/" + sha)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: HTTP %d: %.200s", resp.StatusCode, data)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != sha {
		return nil, fmt.Errorf("artifact %s fails verification (content hashes to %s)", sha, got)
	}
	return data, nil
}

// Stats fetches /statsz.
func (c *Client) Stats() (*Stats, error) {
	resp, err := c.httpClient().Get(c.Base + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// RunRemote executes one simulation through the server and
// reconstructs the facade-level result — the seam cmd/sweep's thin
// -server mode plugs into experiments.SetRemoteRunner. Specs carrying
// local-only instrumentation (tracer, timeline, spans) are rejected:
// those collect through in-process pointers a remote run cannot feed.
func (c *Client) RunRemote(app string, spec core.Spec, cfg params.Config, sc experiments.Scale) (*core.Result, error) {
	if spec.Tracer != nil || spec.Timeline != nil || spec.Spans != nil {
		return nil, fmt.Errorf("serve: in-process instrumentation cannot be served remotely")
	}
	label := spec.String()
	if _, ok := pipeline.ParseProtocol(label); !ok {
		return nil, fmt.Errorf("serve: protocol %q is not expressible as a job spec", label)
	}
	jf, err := FaultsFromPlan(spec.Faults)
	if err != nil {
		return nil, err
	}
	if spec.Watchdog < 0 {
		return nil, fmt.Errorf("serve: watchdog-off runs are not accepted by the server")
	}
	js := &JobSpec{
		Schema:   JobSchema,
		App:      app,
		Protocol: label,
		Scale:    sc.Name(),
		Config:   &cfg,
		Watchdog: int64(spec.Watchdog),
		Faults:   jf,
	}
	st, err := c.Submit(js, true)
	if err != nil {
		return nil, err
	}
	switch st.State {
	case StateDone:
		if st.Result == nil {
			return nil, fmt.Errorf("serve: job %s done but carries no result", st.Key)
		}
		return st.Result.CoreResult(app, label)
	case StateQuarantined, StateFailed:
		msg := st.Error
		if st.Stall != nil {
			msg = fmt.Sprintf("%s (stall at cycle %d, last progress %d)", msg, st.Stall.At, st.Stall.LastProgress)
		}
		return nil, fmt.Errorf("serve: job %s %s after %d attempts: %s", st.Key, st.State, st.Attempts, msg)
	default:
		return nil, fmt.Errorf("serve: job %s rests in state %s (server draining or degraded)", st.Key, st.State)
	}
}
