package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// exportDigests pins the bytes `repro -trace t.json -series s.jsonl`
// writes for the self-asserting experiments at seed 42: the sha256 of
// the Chrome trace and of the gauge-series JSONL. A change to the
// recorder, its encoders or anything that moves a recorded event or
// sample fails here; one that does so on purpose recomputes them with
//
//	go run ./cmd/repro -trace t.json -series s.jsonl dag && sha256sum t.json s.jsonl
var exportDigests = map[string][2]string{
	"dag": {
		"043e2b472b49bd86a58bb023214b63526d802181a97b39973b4df76a41b45519",
		"598ed755dcdb75e728ac9eb67fec616058d90ede6660f76df017c2cf68cee19a",
	},
	"cache": {
		"44f8d2ee936c310f15c7a1425f7ff0b2442973e51c4f7376d929fb8516a750a9",
		"febe21896a6e0807fc2c3641559076e1fcf81e62eb8400dbe169159c91e64eb7",
	},
}

// TestExportDigestsSeed42 writes each experiment's exports through the
// same tap and writer main uses for -trace and -series, and compares
// their digests.
func TestExportDigestsSeed42(t *testing.T) {
	for _, name := range []string{"dag", "cache"} {
		dir := t.TempDir()
		trace, series := filepath.Join(dir, "trace.json"), filepath.Join(dir, "series.jsonl")
		tap := new(experiments.Tap)
		experiments.SetTap(tap)
		err := (&runner{w: new(discard), seed: 42, trials: 3}).run(name)
		experiments.SetTap(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := writeTapOutputs(tap, trace, series); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, path := range []string{trace, series} {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got, want := hex.EncodeToString(sum[:]), exportDigests[name][i]; got != want {
				t.Errorf("%s %s: sha256 %s, want %s", name, filepath.Base(path), got, want)
			}
		}
	}
}

type discard struct{}

func (discard) Write(b []byte) (int, error) { return len(b), nil }
