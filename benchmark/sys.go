package main

// Environment capture: the facts a number from this benchmark cannot be
// read without.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// WALFS is the filesystem type under the WAL directory. On tmpfs or an
	// overlay an fsync costs what the sandbox makes it cost, not what a
	// device does: durable.* latencies are the sandbox's.
	WALFS string `json:"wal_fs"`
}

func captureEnv(outDir string) *environment {
	e := &environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		WALFS:      fsType(outDir),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

func (e *environment) print(w io.Writer) {
	fmt.Fprintf(w, "env: num_cpu=%d gomaxprocs=%d go=%s kernel=%s wal_fs=%s (fsync latency is this sandbox's filesystem, not a device's)\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.WALFS)
}

// fsType names the filesystem holding dir from /proc/self/mountinfo: the
// type of the longest mount point that prefixes dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if real, err := filepath.EvalSymlinks(abs); err == nil {
		abs = real
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw"
		left, right, ok := strings.Cut(line, " - ")
		lf, rf := strings.Fields(left), strings.Fields(right)
		if !ok || len(lf) < 5 || len(rf) < 1 {
			continue
		}
		mp := lf[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), rf[0]
		}
	}
	return typ
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024            // Linux reports KiB
}
