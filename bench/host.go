package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the fingerprint printed with every report: wall-clock
// numbers only compare between runs whose fingerprints agree.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
}

// pinProcs fixes the scheduler's processor count for this process and,
// through the environment, for the wire workers it starts. At least 2 so
// that a p = 16 machine gets w = min(8·GOMAXPROCS, p) = p workers and its
// blocking bodies never hand a shard off (see README, ground rules).
func pinProcs() int {
	n := min(max(runtime.NumCPU(), 2), 4)
	runtime.GOMAXPROCS(n)
	os.Setenv("GOMAXPROCS", strconv.Itoa(n))
	return n
}

func fingerprint() hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPUModel:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// peakRSSMB is the leader's high-water resident set (VmHWM) plus the
// largest resident set of any reaped child, in MB.
func peakRSSMB() float64 {
	var kb float64
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					kb, _ = strconv.ParseFloat(fields[0], 64)
				}
				break
			}
		}
	}
	if kb == 0 {
		kb = float64(rusage(syscall.RUSAGE_SELF).Maxrss)
	}
	return (kb + float64(rusage(syscall.RUSAGE_CHILDREN).Maxrss)) / 1024
}

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid who; the zero value then reads
	// as "no usage".
	_ = syscall.Getrusage(who, &ru)
	return ru
}

// cpuSeconds is user + system CPU time consumed so far by this process
// (RUSAGE_SELF) or by its reaped children (RUSAGE_CHILDREN).
func cpuSeconds(who int) float64 {
	ru := rusage(who)
	tv := func(t syscall.Timeval) float64 {
		return (time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond).Seconds()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// procSnap is a reading of the Go runtime's cumulative counters.
type procSnap struct {
	mallocs uint64
	pauseNs uint64
	cpuS    float64
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs, cpuS: cpuSeconds(syscall.RUSAGE_SELF)}
}
