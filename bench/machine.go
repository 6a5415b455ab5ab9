package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// machine records what the numbers were taken on. Host-time metrics mean
// nothing without it.
type machine struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Load1Start float64 `json:"load1_start"`
	Load1End   float64 `json:"load1_end"`
}

// startMachine reads the record at process start and warns when the box is
// already busy: the run is still made, but its times deserve less trust.
func startMachine() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Load1Start: load1(),
	}
	if m.Load1Start > float64(m.NProc-1) {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-minute load %.2f exceeds nproc-1 = %d; host times will be noisy\n",
			m.Load1Start, m.NProc-1)
	}
	return m
}

func (m *machine) finish() { m.Load1End = load1() }

// procField returns the text after "key:" on the first line of a /proc file
// that starts with key, or "" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// load1 is the 1-minute load average, or -1 where /proc/loadavg is missing.
func load1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	val := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(val, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM from /proc/self/status: %q", val)
	}
	return kb / 1024, nil
}
