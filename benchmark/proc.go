package main

import (
	"os"
	"strconv"
	"strings"
)

// procUsage reads a process's cumulative CPU seconds (user + system) and its
// peak resident set in MB from /proc; pid "self" is this process. Where
// /proc is missing both read as 0.
func procUsage(pid string) (cpuSeconds, peakRSSMB float64) {
	if data, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the line, in clock ticks of 1/100 s.
		if i := strings.LastIndexByte(string(data), ')'); i >= 0 {
			f := strings.Fields(string(data[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpuSeconds = (ut + st) / 100
			}
		}
	}
	if data, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					kb, _ := strconv.ParseFloat(f[1], 64)
					peakRSSMB = kb / 1024
				}
			}
		}
	}
	return cpuSeconds, peakRSSMB
}
