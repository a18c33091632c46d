package main

// Golden-file tests for the CLI surface: -list enumerates the registry, a
// -json -stable run is byte-stable (wall-clock zeroed, everything else
// deterministic per seed), and so is the whole -all matrix. Regenerate with
// `go test ./cmd/rfpsim -update`.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runCapture(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/rfpsim -update` to regenerate)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (regenerate with -update):\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

func TestListGolden(t *testing.T) {
	stdout, stderr, code := runCapture(t, "-list")
	if code != 0 || stderr != "" {
		t.Fatalf("-list exit %d, stderr %q", code, stderr)
	}
	checkGolden(t, "list.golden", stdout)
}

func TestJSONStableGolden(t *testing.T) {
	stdout, stderr, code := runCapture(t, "-scenario", "flash-crowd", "-json", "-stable")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	checkGolden(t, "flash-crowd.json.golden", stdout)

	// -stable must be what makes the output reproducible: a second run is
	// byte-identical.
	again, _, code := runCapture(t, "-scenario", "flash-crowd", "-json", "-stable")
	if code != 0 || again != stdout {
		t.Fatal("-json -stable output not reproducible across runs")
	}
}

// TestAllGolden pins the whole serial matrix — every scenario on every
// backend it declares — byte for byte; CI diffs the CLI's stream against
// the same file.
func TestAllGolden(t *testing.T) {
	stdout, stderr, code := runCapture(t, "-all")
	if code != 0 {
		t.Fatalf("-all exit %d, stderr %q", code, stderr)
	}
	checkGolden(t, "all.golden", stdout)
}

func TestTextRunPasses(t *testing.T) {
	stdout, stderr, code := runCapture(t, "-scenario", "flash-crowd", "-backend", "memckv", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"scenario flash-crowd [memckv] seed=3 mode=serial", "result: PASS", "deterministic-replay"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("report missing %q:\n%s", want, stdout)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                       // no mode selected
		{"-scenario", "no-such"}, // unknown scenario
		{"-bogus-flag"},          // flag parse error
	}
	for _, args := range cases {
		if _, _, code := runCapture(t, args...); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}
