package main

import (
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB, less the
// host-speed probe's array, which stays resident from the first probe on.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss)/1024 - float64(probeMemBytes)/(1<<20) // Linux reports KiB
}

type memStats struct{ mallocs, allocBytes, gcCycles uint64 }

func readMemStats() memStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memStats{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: uint64(ms.NumGC)}
}

// cpuModel names the host CPU, for the result stamp.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
