package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain re-enters main when the test binary is started by runMain,
// so exit codes and output are checked on the real command.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("LITMUS_MAIN_ARGS"); ok {
		os.Args = append([]string{"litmus"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its exit code and
// combined output.
func runMain(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "LITMUS_MAIN_ARGS="+args)
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

func TestCountValidation(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"-seeds 0", 1, "-seeds 0: each test needs at least one interleaving seed"},
		{"-seeds -3", 1, "-seeds -3: each test needs at least one interleaving seed"},
		{"-random -2", 1, "-random -2: the random test count cannot be negative"},
		{"-shapes SB -seeds 2", 0, "seeds=2 ok"},
	} {
		code, out := runMain(t, tc.args)
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("litmus %s: exit %d, output %q; want exit %d and %q", tc.args, code, out, tc.code, tc.want)
		}
	}
}
