package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVerboseGolden pins the -v output of both framework plugins byte
// for byte: stdout is the tool's report, stderr the engine trace with
// the batch-queue and YARN lines. A change that moves either on purpose
// regenerates the files and says why:
//
//	for f in yarn spark; do
//		go run ./cmd/saga-hadoop -v -framework $f \
//			> cmd/saga-hadoop/testdata/$f-v.stdout.golden \
//			2> cmd/saga-hadoop/testdata/$f-v.stderr.golden
//	done
func TestVerboseGolden(t *testing.T) {
	for _, framework := range []string{"yarn", "spark"} {
		t.Run(framework, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-v", "-framework", framework}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
			}
			for _, out := range []struct {
				name string
				got  string
			}{
				{framework + "-v.stdout.golden", stdout.String()},
				{framework + "-v.stderr.golden", stderr.String()},
			} {
				path := filepath.Join("testdata", out.name)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if out.got != string(want) {
					t.Errorf("output differs from %s at %s", path, firstDiff(out.got, string(want)))
				}
			}
		})
	}
}

// TestUnknownMachineExitsTwo: an unknown machine profile is refused with
// exit code 2 before any simulation runs.
func TestUnknownMachineExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-machine", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown machine "nope"`) || stdout.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

// TestBootstrapFailureExitsOne: a failure inside the simulated run is
// reported on stderr and turns into exit code 1, not a process exit
// from inside the simulation.
func TestBootstrapFailureExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-framework", "nope"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "saga-hadoop:") {
		t.Fatalf("stderr does not report the failure: %q", stderr.String())
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "no line (lengths differ)"
}
