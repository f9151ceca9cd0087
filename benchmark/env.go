package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the conditions a result file was recorded under.
type fingerprint struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	// Degraded is set when fewer than two CPUs are available: two workers
	// then time-share one core and the numbers must not gate anything.
	Degraded bool `json:"degraded"`
}

func readFingerprint() fingerprint {
	fp := fingerprint{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		CPUModel:   "unknown",
	}
	fp.Degraded = fp.NumCPU < 2 || fp.GOMAXPROCS < 2
	// The driver's checkout is not a git repository: "unknown" is expected
	// there, and git is not sent looking through the directories above it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			fp.Commit = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// spinMops runs a fixed integer recurrence on one goroutine for about 200 ms
// and returns millions of steps per second: a probe of how fast the host is
// right now. It is measured before and after every workload; a difference
// over noisySpinDelta stamps the run noisy_host.
func spinMops() float64 {
	const chunk = 1 << 20
	x := uint64(88172645463325252)
	start := time.Now()
	steps := 0
	for time.Since(start) < 200*time.Millisecond {
		for i := 0; i < chunk; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		steps += chunk
	}
	spinSink = x
	return float64(steps) / time.Since(start).Seconds() / 1e6
}

var spinSink uint64

// offHeap maps n bytes outside the Go heap, already faulted in. The sample
// and span buffers live there: on the heap they would be tens of megabytes of
// live data that grow with --seconds, and the collector — paced by live heap —
// would run less often for the system under test the longer the run is.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, max(n, 1), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		panic("benchmark: mmap measurement buffer: " + err.Error())
	}
	return b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
