package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

const mib = 1 << 20

// percentile returns the p-quantile (0 ≤ p ≤ 1) of samples by linear
// interpolation between closest ranks, or 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// tailCandidates are the percentiles a tail latency may be reported
// at, in percent.
var tailCandidates = []int{99, 95, 90, 75}

// supportedTail returns the highest candidate percentile that still has
// at least ten of the n samples beyond it, or 0.5 when none has: a
// percentile resting on fewer samples is noise, not a tail.
func supportedTail(n int) float64 {
	for _, p := range tailCandidates {
		if n*(100-p) >= 10*100 {
			return float64(p) / 100
		}
	}
	return 0.5
}

// linkEfficiency is the fraction of the link-limited optimum a fetch
// reached: plaintext goodput over the summed upload caps, clipped at 1
// because a shaper that leaks must not read as better than perfect.
func linkEfficiency(goodputBytesPerSec, capSum float64) float64 {
	if capSum <= 0 {
		return 0
	}
	return math.Min(1, goodputBytesPerSec/capSum)
}

// capOvershoot is how far the peers exceeded their configured upload:
// max(0, served bytes per second ÷ Σ caps − 1).
func capOvershoot(wireBytesPerSec, capSum float64) float64 {
	if capSum <= 0 {
		return 0
	}
	return math.Max(0, wireBytesPerSec/capSum-1)
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

// peakRSSMiB is the process's resident-set high-water mark: VmHWM from
// /proc, or getrusage's maxrss (KiB on Linux) where /proc is absent.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kib, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kib / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
