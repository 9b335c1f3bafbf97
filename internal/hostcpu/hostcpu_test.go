package hostcpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestHasAVX2MatchesCPUInfo cross-checks the CPUID probe against the
// CPU flags the Linux kernel reports.
func TestHasAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if HasAVX2() {
			t.Fatal("AVX2 reported off amd64")
		}
		t.Skip("the probe is amd64-only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo")
	}
	for _, line := range strings.Split(string(info), "\n") {
		if !strings.HasPrefix(line, "flags") {
			continue
		}
		hasAVX2 := false
		for _, f := range strings.Fields(line) {
			hasAVX2 = hasAVX2 || f == "avx2"
		}
		if hasAVX2 != HasAVX2() {
			t.Fatalf("/proc/cpuinfo avx2 %v, CPUID probe %v", hasAVX2, HasAVX2())
		}
		return
	}
}
