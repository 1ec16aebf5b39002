package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer samples beyond it rests on a handful of outliers.
const minBeyond = 10

// percentileIndex returns the nearest-rank index of the p-quantile (0<p<1)
// in a sorted sample of n values: the smallest index i with (i+1)/n >= p.
func percentileIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// supported reports whether a sample of n values has at least minBeyond
// values beyond its p-quantile.
func supported(n int, p float64) bool {
	return n > 0 && n-1-percentileIndex(n, p) >= minBeyond
}

// percentile returns the nearest-rank p-quantile of xs, or an error when the
// sample is too small to have minBeyond values beyond it. xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	if !supported(len(xs), p) {
		return 0, fmt.Errorf("p%.0f of %d samples has fewer than %d samples beyond it", p*100, len(xs), minBeyond)
	}
	s := sortedCopy(xs)
	return s[percentileIndex(len(s), p)], nil
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty sample. It is used for layer times and
// set-up times, which need no tail support.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// boundaryMargin is how close, in ranks, a reported percentile may come to
// the boundary between two latency modes before the run is rejected.
const boundaryMargin = 10

// checkModeBoundary guards a bimodal sample (warm and regen stream
// resolves): fast counts the samples of the fast mode, so if the modes
// separate, ranks 1..fast hold the fast mode. A percentile whose rank lies
// within boundaryMargin of that boundary could flip between the modes from
// run to run, so the run is rejected instead of reporting it.
func checkModeBoundary(n, fast int, ps ...float64) error {
	for _, p := range ps {
		rank := percentileIndex(n, p) + 1
		if d := rank - fast; d >= -boundaryMargin && d <= boundaryMargin {
			return fmt.Errorf("p%.0f (rank %d of %d) is within %d ranks of the mode boundary at rank %d",
				p*100, rank, n, boundaryMargin, fast)
		}
	}
	return nil
}

// clockTicks is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseProcStatCPU returns utime+stime in seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(ut+st) / clockTicks, nil
}

// parseVmHWM returns the peak resident set size in MiB from the contents of
// /proc/<pid>/status.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPU reads a process's user+system CPU time in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// procPeakRSS reads a process's peak resident set size in MiB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// machineCPU reads the machine-wide CPU counters from /proc/stat and
// returns the ticks stolen by the hypervisor and the total ticks. On a
// shared host, steal inside the timed window explains shifts in every
// timing, so each run prints it next to its metrics.
func machineCPU() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseMachineCPU(string(b))
}

// parseMachineCPU parses the aggregate "cpu" line of /proc/stat; steal is
// its eighth value.
func parseMachineCPU(stat string) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat cpu: %w", err)
		}
		if i < 8 { // guest time is already counted in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
