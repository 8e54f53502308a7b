package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain re-enters main when the test binary is started by runMain,
// so output is checked on the real command.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPERIMENTS_MAIN_ARGS"); ok {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its stdout and stderr.
func runMain(t *testing.T, args string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN_ARGS="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments %s: %v\n%s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestStdoutIdenticalAcrossCacheModes: a cold and a warm pass print the
// same stdout apart from the closing "total:" line — render times go to
// stderr — and the warm pass is served entirely from the store.
func TestStdoutIdenticalAcrossCacheModes(t *testing.T) {
	args := "-only samp-err,mc-ipc,fig12 -instr 4000 -bench perl,hmmer -j 2 -cache rw -cachedir " + t.TempDir()
	dropTotal := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "total:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	cold, _ := runMain(t, args)
	warm, stderr := runMain(t, args)
	if dropTotal(cold) != dropTotal(warm) {
		t.Errorf("stdout differs between the cold and the warm pass:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if regexp.MustCompile(`\([0-9.]+s\) ====`).MatchString(cold) {
		t.Errorf("stdout carries a render time:\n%s", cold)
	}
	if !strings.Contains(stderr, "mc-ipc rendered in") {
		t.Errorf("render time missing from stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, " 0 miss, 0 written") {
		t.Errorf("warm pass missed the store:\n%s", stderr)
	}
}
