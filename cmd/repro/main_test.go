package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenExperiments are the deterministic subcommands: every one but
// scale, whose report carries host wall-clock figures.
func goldenExperiments() []string {
	var names []string
	for _, name := range subcommands {
		if name != "scale" {
			names = append(names, name)
		}
	}
	return names
}

// TestGoldenSeed42 pins every deterministic experiment's report at the
// reference seed byte for byte. Each testdata/<name>.golden file is the
// stdout of `repro <name>` at seed 42 with the default trials: the
// report plus the blank line main prints after it. A change that moves
// any virtual-time result fails here; one that does so on purpose
// regenerates the files and says why:
//
//	for e in fig5 fig6 speedups ablate-shuffle ablate-amreuse sched elastic \
//		data dataelastic dag cache breakdown; do
//		go run ./cmd/repro $e > cmd/repro/testdata/$e.golden
//	done
func TestGoldenSeed42(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper experiment; slow under -race")
	}
	r := &runner{seed: 42, trials: 3}
	for _, name := range goldenExperiments() {
		var buf bytes.Buffer
		r.w = &buf
		if err := r.run(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf.WriteString("\n")
		path := filepath.Join("testdata", name+".golden")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != string(want) {
			t.Errorf("%s output differs from %s at %s", name, path, firstDiff(got, string(want)))
		}
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
