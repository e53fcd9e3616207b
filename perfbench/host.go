package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"javelin/internal/cpuid"
	"javelin/internal/kernels"
)

// host describes the machine and build a result was measured on.
type host struct {
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	CPUFeatures     string `json:"cpu_features"`
	KernelVariant   string `json:"kernel_variant"`
	GoVersion       string `json:"go_version"`
	GOARCH          string `json:"goarch"`
	L2Bytes         int64  `json:"l2_bytes"`
	L3Bytes         int64  `json:"l3_bytes"`
	WorkingSetBytes int64  `json:"working_set_bytes"`
	WorkingSetNote  string `json:"working_set_note"`
	Seed            uint64 `json:"seed"`
}

func stampHost(seed uint64, workingSet int64) host {
	l2, l3 := cacheSizes()
	return host{
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		CPUFeatures:     cpuid.Detected().String(),
		KernelVariant:   kernels.Variant(),
		GoVersion:       runtime.Version(),
		GOARCH:          runtime.GOARCH,
		L2Bytes:         l2,
		L3Bytes:         l3,
		WorkingSetBytes: workingSet,
		WorkingSetNote:  "computed from array sizes: matrix + ILU factor + 6 n-vectors",
		Seed:            seed,
	}
}

// cacheSizes reads CPU 0's unified L2 and L3 sizes from sysfs; a size
// the host does not expose reads as 0.
func cacheSizes() (l2, l3 int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		if readTrim(filepath.Join(d, "type")) == "Instruction" {
			continue
		}
		size := parseSize(readTrim(filepath.Join(d, "size")))
		switch level {
		case "2":
			l2 = size
		case "3":
			l3 = size
		}
	}
	return l2, l3
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize parses sysfs sizes such as "2048K" or "300M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}
