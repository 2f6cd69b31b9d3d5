package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of the process's own cost counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU of the whole process
	allocs  uint64        // heap objects allocated
	bytes   uint64        // heap bytes allocated
	gcs     uint64        // completed GC cycles
	pauseNs uint64        // cumulative stop-the-world GC pause
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readUsage snapshots CPU time from getrusage and allocation and GC
// counters from runtime/metrics. It does not stop the world.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(usageSamples)
	return usage{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: usageSamples[0].Value.Uint64(),
		bytes:  usageSamples[1].Value.Uint64(),
		gcs:    usageSamples[2].Value.Uint64(),
	}
}

// readUsageWithPauses adds the cumulative GC pause, which needs
// runtime.ReadMemStats and so briefly stops the world; call it only at
// phase boundaries.
func readUsageWithPauses() usage {
	u := readUsage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.pauseNs = ms.PauseTotalNs
	return u
}

// delta is the cost of one phase.
type delta struct {
	wall, cpu          time.Duration
	allocs, bytes, gcs uint64
	pauseNs            uint64
}

// add accumulates another phase's cost.
func (d *delta) add(o delta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.allocs += o.allocs
	d.bytes += o.bytes
	d.gcs += o.gcs
	d.pauseNs += o.pauseNs
}

func (u usage) since(prev usage) delta {
	return delta{
		wall:    u.wall.Sub(prev.wall),
		cpu:     u.cpu - prev.cpu,
		allocs:  u.allocs - prev.allocs,
		bytes:   u.bytes - prev.bytes,
		gcs:     u.gcs - prev.gcs,
		pauseNs: u.pauseNs - prev.pauseNs,
	}
}

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// retainedMB runs two full GCs, the second of which also frees what
// sync.Pools held through the first, and returns the heap found live, in
// MB. Sampled between phases, its maximum is the run's peak retained
// memory.
// The resident-set high-water mark (peakRSSMB) is not used as a metric:
// under hundreds of MB/s of short-lived garbage it tracks GC pacing and
// moved by 40-70% between identical runs.
func retainedMB() float64 {
	runtime.GC()
	runtime.GC()
	metrics.Read(liveSample)
	return float64(liveSample[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
