package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCoresPerUnit(t *testing.T) {
	for _, tc := range []struct {
		cores, units, want int
		ok                 bool
	}{
		{cores: 0, units: 4, want: 0, ok: true}, // default cores per unit
		{cores: 60, units: 4, want: 15, ok: true},
		{cores: 8, units: 1, want: 8, ok: true},
		{cores: 4, units: 4, want: 1, ok: true},
		{cores: 3, units: 4},  // fewer cores than units
		{cores: 10, units: 4}, // not a multiple
		{cores: -8, units: 4}, // negative
	} {
		got, err := coresPerUnit(tc.cores, tc.units)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("coresPerUnit(%d, %d) = %d, %v; want %d, nil", tc.cores, tc.units, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "-cores") {
			t.Errorf("coresPerUnit(%d, %d) = %d, %v; want an error naming -cores", tc.cores, tc.units, got, err)
		}
	}
}

// -cpuprofile and -memprofile write non-empty pprof files when the command
// ends, through the one helper every simulating subcommand shares.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		cmd  func([]string)
		args []string
	}{
		{"run", runCmd, []string{"-workload", "lock", "-scale", "0.05", "-units", "1", "-json", filepath.Join(dir, "run.json")}},
		{"sweep", sweepCmd, []string{"-workloads", "lock", "-schemes", "syncron", "-scale", "0.05", "-units", "1", "-json", filepath.Join(dir, "sweep.json")}},
		{"paper", paperCmd, nil}, // lists the artifacts
	} {
		cpu := filepath.Join(dir, tc.name+".cpu.pprof")
		heap := filepath.Join(dir, tc.name+".mem.pprof")
		tc.cmd(append(tc.args, "-cpuprofile", cpu, "-memprofile", heap))
		for _, path := range []string{cpu, heap} {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%s: profile %s not written (stat: %v)", tc.name, filepath.Base(path), err)
			}
		}
	}
}
