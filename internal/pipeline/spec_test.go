package pipeline

import (
	"strings"
	"testing"
)

// validSpec is a minimal spec every rejection case below mutates.
const validSpec = `{
  "schema": "dsm96/experiments/v1",
  "experiments": [
    {
      "name": "ok",
      "scale": "tiny",
      "repeats": 1,
      "grid": {
        "apps": ["water"],
        "protocols": ["Base"],
        "profiles": ["pci1996"],
        "procs": [4]
      }
    }
  ]
}`

func TestLoadValid(t *testing.T) {
	s, err := Load(strings.NewReader(validSpec))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	e, err := s.Find("ok")
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	cells, err := e.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(cells) != 1 {
		t.Fatalf("Expand: %d cells, want 1", len(cells))
	}
	if got, want := cells[0].ID(), "pci1996/water/Base/p4/w1"; got != want {
		t.Errorf("ID: %q, want %q", got, want)
	}
}

// TestLoadRejections is the strict-decode rejection matrix: every
// malformed spec must fail at load time with an error that names the
// offending field.
func TestLoadRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string // substring naming the offending field
	}{
		{"wrong schema",
			func(s string) string { return strings.Replace(s, "dsm96/experiments/v1", "dsm96/experiments/v2", 1) },
			`schema: got "dsm96/experiments/v2"`},
		{"unknown top-level field",
			func(s string) string { return strings.Replace(s, `"schema"`, `"bogus": 1, "schema"`, 1) },
			`unknown field "bogus"`},
		{"unknown experiment field",
			func(s string) string { return strings.Replace(s, `"name"`, `"repeat": 3, "name"`, 1) },
			`unknown field "repeat"`},
		{"unknown grid field",
			func(s string) string { return strings.Replace(s, `"apps"`, `"app": [], "apps"`, 1) },
			`unknown field "app"`},
		{"no experiments",
			func(string) string { return `{"schema": "dsm96/experiments/v1", "experiments": []}` },
			"experiments: empty"},
		{"bad name",
			func(s string) string { return strings.Replace(s, `"ok"`, `"Not OK"`, 1) },
			"name: must match"},
		{"unknown scale",
			func(s string) string { return strings.Replace(s, `"tiny"`, `"huge"`, 1) },
			`scale: unknown "huge"`},
		{"zero repeats",
			func(s string) string { return strings.Replace(s, `"repeats": 1`, `"repeats": 0`, 1) },
			"repeats: 0, need >= 1"},
		{"negative warmup",
			func(s string) string { return strings.Replace(s, `"repeats": 1`, `"repeats": 1, "warmup": -1`, 1) },
			"warmup: -1, need >= 0"},
		{"negative timeout",
			func(s string) string { return strings.Replace(s, `"repeats": 1`, `"repeats": 1, "timeout_sec": -5`, 1) },
			"timeout_sec: -5, need >= 0"},
		{"empty apps",
			func(s string) string { return strings.Replace(s, `["water"]`, `[]`, 1) },
			"grid.apps: empty"},
		{"unknown app",
			func(s string) string { return strings.Replace(s, `"water"`, `"doom"`, 1) },
			`grid.apps[0]: unknown app "doom"`},
		{"empty protocols",
			func(s string) string { return strings.Replace(s, `["Base"]`, `[]`, 1) },
			"grid.protocols: empty"},
		{"unknown protocol",
			func(s string) string { return strings.Replace(s, `"Base"`, `"MESI"`, 1) },
			`grid.protocols[0]: unknown protocol "MESI"`},
		{"empty profiles",
			func(s string) string { return strings.Replace(s, `["pci1996"]`, `[]`, 1) },
			"grid.profiles: empty"},
		{"unknown profile",
			func(s string) string { return strings.Replace(s, `"pci1996"`, `"vax"`, 1) },
			"grid.profiles[0]:"},
		{"empty procs",
			func(s string) string { return strings.Replace(s, `[4]`, `[]`, 1) },
			"grid.procs: empty"},
		{"zero procs",
			func(s string) string { return strings.Replace(s, `[4]`, `[0]`, 1) },
			"grid.procs[0]: 0, need >= 1"},
		{"workers axis",
			func(s string) string {
				return strings.Replace(s, `"procs": [4]`, `"procs": [4], "workers": [1]`, 1)
			},
			`unknown field "workers"`},
		{"duplicate name",
			func(string) string {
				one := `{"name": "ok", "scale": "tiny", "repeats": 1, "grid": {"apps": ["water"], "protocols": ["Base"], "profiles": ["pci1996"], "procs": [4]}}`
				return `{"schema": "dsm96/experiments/v1", "experiments": [` + one + `, ` + one + `]}`
			},
			"name: duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.mutate(validSpec)))
			if err == nil {
				t.Fatalf("Load accepted a spec with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the offending field (want substring %q)", err, tc.wantErr)
			}
		})
	}
}

// TestCommittedSpecLoads pins the repo-root experiments.json: it must
// always load, and the experiments the Makefile and docs name must
// exist.
func TestCommittedSpecLoads(t *testing.T) {
	s, err := LoadFile("../../experiments.json")
	if err != nil {
		t.Fatalf("committed experiments.json: %v", err)
	}
	for _, name := range []string{"smoke", "ladder", "chaos"} {
		e, err := s.Find(name)
		if err != nil {
			t.Errorf("committed spec: %v", err)
			continue
		}
		if _, err := e.Expand(); err != nil {
			t.Errorf("committed spec: expand %s: %v", name, err)
		}
	}
}

func TestParseProtocol(t *testing.T) {
	for label, want := range map[string]string{
		"Base": "Base", "I": "I", "I+P+D": "I+P+D",
		"AURC": "AURC", "AURC+P": "AURC+P",
	} {
		spec, ok := ParseProtocol(label)
		if !ok {
			t.Errorf("ParseProtocol(%q): not recognized", label)
			continue
		}
		if got := spec.String(); got != want {
			t.Errorf("ParseProtocol(%q).String() = %q, want %q", label, got, want)
		}
	}
	if _, ok := ParseProtocol("MOESI"); ok {
		t.Error("ParseProtocol accepted an unknown label")
	}
}

// TestExpandOrder pins the fixed expansion order (apps outermost, then
// protocols, profiles, procs) that cell numbering and artifact names
// depend on.
func TestExpandOrder(t *testing.T) {
	e := &Experiment{
		Name: "order", Scale: "tiny", Repeats: 1,
		Grid: Grid{
			Apps: []string{"water", "tsp"}, Protocols: []string{"Base", "I"},
			Profiles: []string{"pci1996"}, Procs: []int{4, 8},
		},
	}
	cells, err := e.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"pci1996/water/Base/p4/w1", "pci1996/water/Base/p8/w1",
		"pci1996/water/I/p4/w1", "pci1996/water/I/p8/w1",
		"pci1996/tsp/Base/p4/w1", "pci1996/tsp/Base/p8/w1",
		"pci1996/tsp/I/p4/w1", "pci1996/tsp/I/p8/w1",
	}
	if len(cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(cells), len(want))
	}
	for i := range want {
		if got := cells[i].ID(); got != want[i] {
			t.Errorf("cell %d: %q, want %q", i, got, want[i])
		}
	}
}
