package main

import (
	"errors"
	"os"
	"os/exec"
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

// cliArgsEnv carries a command line to the test binary re-executed as the
// CLI, for checks of exit status and stderr.
const cliArgsEnv = "SYNCRON_SIM_TEST_ARGS"

// runCLI runs the CLI with args in a child process and returns its exit
// code and combined output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestLinkNSZeroRejected$")
	cmd.Env = append(os.Environ(), cliArgsEnv+"="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

// A zero link latency means the 40 ns default, so run and sweep reject an
// explicit -link-ns 0 (exit 2, naming the flag) instead of silently running
// at 40 ns. Omitting the flag still means 40 ns.
func TestLinkNSZeroRejected(t *testing.T) {
	if args := os.Getenv(cliArgsEnv); args != "" {
		os.Args = append([]string{"syncron-sim"}, strings.Fields(args)...)
		main()
		return
	}
	for _, cmd := range []string{"run -workload lock", "sweep -workloads lock"} {
		args := append(strings.Fields(cmd), "-scale", "0.05", "-link-ns", "0")
		code, out := runCLI(t, args...)
		if code != 2 || !strings.Contains(out, "-link-ns") {
			t.Errorf("%s -link-ns 0: exit %d, output %q; want exit 2 naming -link-ns", cmd, code, out)
		}
	}
	code, out := runCLI(t, "run", "-workload", "lock", "-print-spec")
	if code != 0 || strings.Contains(out, "link_latency") {
		t.Errorf("run without -link-ns: exit %d, spec %q; want exit 0 and the default link latency", code, out)
	}
}
