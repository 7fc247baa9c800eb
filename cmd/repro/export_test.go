package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/pilot"
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

// registryDigests pins the metrics registry `repro -metrics addr`
// fills for each experiment at seed 42: the sha256 of its Prometheus
// text (/metrics) and of its JSON snapshot (/debug/pilot), read after
// the run. Together these runs reach the bridge's cache, replica and
// autoscale instruments as well as the per-unit set.
var registryDigests = map[string][2]string{
	"dag": {
		"61539dd053010de6139c1d9681e144b330a62d7d07a7a787616dbde4949f2aad",
		"f9d60bff0857ba85289b55595c9484a374c847fd3d5f4f696fde7a136029788b",
	},
	"cache": {
		"6e76e630247a51839f197d61ced682ec45997dccf24c6943ee2287d532cb23ec",
		"cd027694f7bb7dd8c2dbf377716a472abb4470b9bf2eda426a8b2b562a687217",
	},
	"elastic": {
		"938ec99d89119b6adebeb17fae1ce10cca0f622ab2dcb5489eedfac6202662a8",
		"7a0ee63dd325b96e86729851cf85c0dfb6eac3e1beb731d738e8c553da954395",
	},
	"dataelastic": {
		"dd0be2271301fd7a5c328c5169e1ce2b07e51fc204de0ac753a263217b01d46a",
		"cecdc49bfdbeafbf1a52937d9d3b365c3614a6ed5fbf9f80e6ae2bbcd62e1a18",
	},
}

// TestExportDigestsSeed42 writes each experiment's exports through the
// same tap and writer main uses for -trace and -series, renders the
// registry main installs for -metrics, and compares their digests.
func TestExportDigestsSeed42(t *testing.T) {
	for _, name := range []string{"dag", "cache", "elastic", "dataelastic"} {
		dir := t.TempDir()
		trace, series := filepath.Join(dir, "trace.json"), filepath.Join(dir, "series.jsonl")
		tap := new(experiments.Tap)
		experiments.SetTap(tap)
		reg := pilot.NewMetricsRegistry()
		experiments.SetMetricsRegistry(reg)
		err := (&runner{w: new(discard), seed: 42, trials: 3}).run(name)
		experiments.SetTap(nil)
		experiments.SetMetricsRegistry(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var prom, snap bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		for i, out := range []struct {
			name string
			data []byte
		}{{"/metrics", prom.Bytes()}, {"/debug/pilot", snap.Bytes()}} {
			sum := sha256.Sum256(out.data)
			if got, want := hex.EncodeToString(sum[:]), registryDigests[name][i]; got != want {
				t.Errorf("%s %s: sha256 %s, want %s", name, out.name, got, want)
			}
		}
		if _, ok := exportDigests[name]; !ok {
			continue
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
