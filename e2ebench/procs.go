package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the CPU time a process has used, summed over its
// threads' scheduler statistics (nanosecond resolution, unlike the
// clock-tick counters of /proc/<pid>/stat).
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("cpu of pid %d: no scheduler statistics", pid)
	}
	var total int64
	for _, path := range tasks {
		blob, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := strings.Fields(string(blob))
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("cpu of pid %d: %w", pid, err)
		}
		total += v
	}
	return time.Duration(total), nil
}

// peakRSS returns a process's peak resident set size (VmHWM) in MiB; pid
// 0 means this process.
func peakRSS(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak rss: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in %s", path)
}

// resetPeakRSS sets a process's VmHWM back to its current resident set
// size (pid 0 means this process), so a later peakRSS reports the peak of
// the measured phases rather than of input generation and registration.
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	if err := os.WriteFile(path, []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// runtimeSample reads this process's GC CPU time, busy CPU time (the
// runtime's available CPU time minus idle time) and heap allocation count
// from runtime/metrics.
type runtimeSample struct {
	gcCPU, busyCPU float64
	allocs         uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	out := runtimeSample{gcCPU: f(0), busyCPU: f(1) - f(2)}
	if s[3].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[3].Value.Uint64()
	}
	return out
}

// gcFrac returns the share of this process's busy CPU time spent in the
// garbage collector between two samples.
func gcFrac(before, after runtimeSample) float64 {
	busy := after.busyCPU - before.busyCPU
	if busy <= 0 {
		return 0
	}
	return (after.gcCPU - before.gcCPU) / busy
}
