package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDemoVerboseGolden pins the demo workload's -v output byte for
// byte: stdout is the run report, stderr the engine trace interleaved
// with the unit and pilot state lines the recorder hook prints. A change
// that moves either on purpose regenerates the files and says why:
//
//	go run ./cmd/radical-pilot -v \
//		> cmd/radical-pilot/testdata/demo-v.stdout.golden \
//		2> cmd/radical-pilot/testdata/demo-v.stderr.golden
func TestDemoVerboseGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-v"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
	}
	for _, out := range []struct {
		name string
		got  string
	}{
		{"demo-v.stdout.golden", stdout.String()},
		{"demo-v.stderr.golden", stderr.String()},
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
}

// TestUnknownModeExitsTwo: a workload naming an unregistered backend is
// refused with exit code 2 and the registered backends listed.
func TestUnknownModeExitsTwo(t *testing.T) {
	wl := filepath.Join(t.TempDir(), "wl.json")
	if err := os.WriteFile(wl, []byte(`{"mode": "nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-f", wl}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown mode "nope"`) || !strings.Contains(stderr.String(), "yarn") {
		t.Fatalf("stderr does not name the mode and the registered backends:\n%s", stderr.String())
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
