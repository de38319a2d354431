package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// printHostFacts records the machine next to the numbers taken on it
// (ROADMAP aim 1): a throughput cannot be compared without it.
func printHostFacts(w io.Writer) {
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), gitCommit())
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the file or the field is missing).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is `git rev-parse HEAD`, or "unknown" outside a git checkout
// (the benchmark driver runs the harness from an exported tree).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// clock pairs wall and CPU time so one subtraction yields both.
type clock struct {
	wall time.Time
	cpu  float64
}

func now() clock { return clock{wall: time.Now(), cpu: cpuSeconds()} }

// since returns the wall and CPU seconds elapsed since c.
func (c clock) since() (wall, cpu float64) {
	return time.Since(c.wall).Seconds(), cpuSeconds() - c.cpu
}
