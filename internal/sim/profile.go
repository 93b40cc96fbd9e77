package sim

// Engine self-profiling: the fired event count plus the wall time Run
// spent and the host it ran on.
//
// The profile separates two kinds of fields. Everything under
// "deterministic" is a pure function of the simulated schedule —
// identical across repeat runs on any host — so metricsdiff can gate it
// exactly. Everything under "host" is wall-clock measurement of the
// machine the run happened on and is never comparable across hosts.

import (
	"encoding/json"
	"io"
	"runtime"
)

// EngineProfileSchema tags the engine self-profile JSON format
// (dsmsim -engine-profile and metricsdiff -engine-profile speak it).
const EngineProfileSchema = "dsm96/engine-profile/v1"

// EngineProfileDeterministic is the schedule-determined block: byte
// identical across repeat runs of the same configuration, on any host.
// metricsdiff -engine-profile compares it exactly.
type EngineProfileDeterministic struct {
	// EventsRun is the total fired event count (equals Stats.EventsRun).
	EventsRun uint64 `json:"events_run"`
}

// EngineProfileHost is the host-dependent block: wall-clock timings of
// the machine the run executed on. Never comparable across hosts (or
// even across runs on a loaded host); metricsdiff -engine-profile
// ignores it.
type EngineProfileHost struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// RunWallNS is the wall time of Engine.Run.
	RunWallNS int64 `json:"run_wall_ns"`
}

// EngineProfile is the engine's self-profile, exported as
// dsm96/engine-profile/v1 JSON.
type EngineProfile struct {
	Schema string `json:"schema"`

	Deterministic EngineProfileDeterministic `json:"deterministic"`
	Host          EngineProfileHost          `json:"host"`
}

// WriteJSON serializes the profile as indented JSON with a trailing
// newline. Structs only, so the byte stream is deterministic for fixed
// contents.
func (p *EngineProfile) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// Profile snapshots the engine's self-profile. Call it after Run
// returns; the counters accumulate across Stop/Run cycles.
func (e *Engine) Profile() *EngineProfile {
	return &EngineProfile{
		Schema: EngineProfileSchema,
		Deterministic: EngineProfileDeterministic{
			EventsRun: e.eventsRun,
		},
		Host: EngineProfileHost{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			RunWallNS:  e.runWallNS,
		},
	}
}
