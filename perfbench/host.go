package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo identifies the machine a result was measured on, so
// results are compared only between like hosts.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
}

func readHost(seed uint64) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
	h.L2Bytes, h.L3Bytes = cacheSizes()
	return h
}

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

// cacheSizes reads cpu0's unified L2 and L3 sizes from sysfs (0 when
// the kernel does not expose them).
func cacheSizes() (l2, l3 int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := sysfsString(filepath.Join(d, "level"))
		if sysfsString(filepath.Join(d, "type")) == "Instruction" {
			continue
		}
		size := parseCacheSize(sysfsString(filepath.Join(d, "size")))
		switch level {
		case "2":
			l2 = size
		case "3":
			l3 = size
		}
	}
	return l2, l3
}

func sysfsString(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseCacheSize parses sysfs sizes such as "4096K" or "105M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// copyGBps measures the host's memory copy bandwidth in GB/s: the
// best of several copies between a source and a destination that
// together span four times the last-level cache, so neither stays
// cached. Bytes moved count the read and the write of each byte.
func copyGBps(l3 int64) float64 {
	half := max(2*l3, 64<<20)
	src, dst := make([]byte, half), make([]byte, half)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault in the destination pages
	best := 0.0
	for range 5 {
		t0 := time.Now()
		copy(dst, src)
		if gbps := 2 * float64(half) / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	return best
}
