package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsm96/internal/experiments"
)

func smokeExperiment() *Experiment {
	return &Experiment{
		Name: "test-smoke", Scale: "tiny", Repeats: 2, Warmup: 1,
		Grid: Grid{
			Apps: []string{"water"}, Protocols: []string{"Base", "I+P+D"},
			Profiles: []string{"pci1996"}, Procs: []int{4},
		},
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	res, err := RunExperiment(smokeExperiment())
	if err != nil {
		t.Fatal(err)
	}
	if failed := res.Failed(); len(failed) > 0 {
		t.Fatalf("failed cells: %v", failed)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Cycles <= 0 || c.Events == 0 {
			t.Errorf("%s: empty run (%d cycles, %d events)", c.ID, c.Cycles, c.Events)
		}
		if len(c.Fingerprint) != 16 || len(c.MetricsKeys) != 16 {
			t.Errorf("%s: malformed hashes %q / %q", c.ID, c.Fingerprint, c.MetricsKeys)
		}
		if c.WallNS <= 0 || c.EventsPerSec <= 0 {
			t.Errorf("%s: non-positive throughput (%d ns, %f ev/s)", c.ID, c.WallNS, c.EventsPerSec)
		}
		if c.Repeats != 2 || c.Warmup != 1 {
			t.Errorf("%s: repeats/warmup %d/%d not echoed", c.ID, c.Repeats, c.Warmup)
		}
	}
}

func TestRunCellTimeout(t *testing.T) {
	e := smokeExperiment()
	cells, err := e.Expand()
	if err != nil {
		t.Fatal(err)
	}
	got := runCell(&cells[0], 1, 0, time.Nanosecond)
	if got.Error == "" || !strings.Contains(got.Error, "timed out") {
		t.Fatalf("1ns timeout did not trip: error = %q", got.Error)
	}
}

func TestWriteRunFolder(t *testing.T) {
	res, err := RunExperiment(smokeExperiment())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	folder, err := WriteRunFolder(dir, "20260101-000000", res)
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	buf, err := os.ReadFile(filepath.Join(folder, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		t.Fatalf("manifest.json: %v", err)
	}
	if man.Schema != ManifestSchema {
		t.Errorf("manifest schema %q, want %q", man.Schema, ManifestSchema)
	}
	if len(man.Cells) != len(res.Cells) {
		t.Fatalf("manifest has %d cells, want %d", len(man.Cells), len(res.Cells))
	}
	for _, mc := range man.Cells {
		if mc.MetricsFile == "" || mc.MetricsSHA256 == "" {
			t.Errorf("%s: missing metrics artifact reference", mc.ID)
			continue
		}
		if _, err := os.Stat(filepath.Join(folder, mc.MetricsFile)); err != nil {
			t.Errorf("%s: manifest vouches for %s but: %v", mc.ID, mc.MetricsFile, err)
		}
	}
	csv, err := os.ReadFile(filepath.Join(folder, "cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines != len(res.Cells)+1 {
		t.Errorf("cells.csv has %d lines, want %d", lines, len(res.Cells)+1)
	}
}

// TestWriteRunFolderKilledMidWrite simulates the process dying partway
// through writing an artifact: the atomic writer must leave neither the
// target file nor a temp file behind, and because the manifest is
// written last, a kill during any earlier artifact leaves no manifest —
// so no folder can exist whose manifest vouches for missing artifacts.
func TestWriteRunFolderKilledMidWrite(t *testing.T) {
	res, err := RunExperiment(smokeExperiment())
	if err != nil {
		t.Fatal(err)
	}
	orig := writeArtifact
	defer func() { writeArtifact = orig }()

	for _, kill := range []string{"metrics/", "cells.csv"} {
		t.Run(kill, func(t *testing.T) {
			writeArtifact = func(path string, write func(io.Writer) error) error {
				if strings.Contains(path, kill) {
					return experiments.WriteFileAtomic(path, func(w io.Writer) error {
						io.WriteString(w, "partial garbage") // bytes flushed before the "kill"
						return fmt.Errorf("simulated kill during %s", kill)
					})
				}
				return orig(path, write)
			}
			dir := t.TempDir()
			if _, err := WriteRunFolder(dir, "20260101-000000", res); err == nil {
				t.Fatal("WriteRunFolder succeeded despite a killed write")
			}
			folder := filepath.Join(dir, "20260101-000000-test-smoke")
			if _, err := os.Stat(filepath.Join(folder, "manifest.json")); !os.IsNotExist(err) {
				t.Error("manifest.json exists after a killed earlier write — it must be written last")
			}
			// No partial target, no leftover temp files anywhere in the folder.
			filepath.Walk(folder, func(path string, info os.FileInfo, err error) error {
				if err != nil || info.IsDir() {
					return nil
				}
				if strings.Contains(path, kill) {
					t.Errorf("killed artifact %s still exists", path)
				}
				if strings.Contains(filepath.Base(path), ".tmp") {
					t.Errorf("leftover temp file %s", path)
				}
				return nil
			})
		})
	}
}

func TestStamp(t *testing.T) {
	got := Stamp(time.Date(2026, 8, 9, 12, 34, 56, 0, time.UTC))
	if got != "20260809-123456" {
		t.Errorf("Stamp = %q", got)
	}
}
