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
	if args, ok := os.LookupEnv("DIFFTEST_MAIN_ARGS"); ok {
		os.Args = append([]string{"difftest"}, strings.Fields(args)...)
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
	cmd.Env = append(os.Environ(), "DIFFTEST_MAIN_ARGS="+args)
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

func TestSeedCountValidation(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"-seeds -5", 1, "-seeds -5: the sweep needs at least one seed"},
		{"-seeds 0", 1, "-seeds 0: the sweep needs at least one seed"},
		{"-seeds 1 -instr 500 -j 1", 0, "difftest: 1 seeds x 5 models clean"},
	} {
		code, out := runMain(t, tc.args)
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("difftest %s: exit %d, output %q; want exit %d and %q", tc.args, code, out, tc.code, tc.want)
		}
		if strings.Contains(out, "panic") {
			t.Errorf("difftest %s panicked:\n%s", tc.args, out)
		}
	}
}
