package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// targetProcs is the GOMAXPROCS the numbers are measured at; the
// benchmark never runs above the host's core count. Two cores, not one:
// on a shared two-core host a one-core run's CPU time per step swung by
// up to 1.75x between runs minutes apart (the idle core's hyperthread
// sibling busy or not), while runs keeping both cores busy held it
// within 10%.
const targetProcs = 2

// stamp identifies the host and build a result was measured on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
}

// pinProcs sets GOMAXPROCS to min(nproc, targetProcs) and returns the
// stamp for this run, with a note on the numbers a smaller host leaves
// incomparable.
func pinProcs(out io.Writer, workload string, seed uint64) stamp {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, targetProcs))
	st := stamp{
		Workload:   workload,
		Seed:       seed,
		NProc:      nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
	}
	fmt.Fprintf(out, "stamp: nproc=%d gomaxprocs=%d cpu=%q go=%s rev=%s seed=%d\n",
		st.NProc, st.GOMAXPROCS, st.CPU, st.GoVersion, st.Revision, st.Seed)
	if st.GOMAXPROCS < targetProcs {
		fmt.Fprintf(out, "skipped: two-core comparison; every time here ran at GOMAXPROCS=%d and is not comparable with %d-core baselines\n",
			st.GOMAXPROCS, targetProcs)
	}
	return st
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// revision is the program revision under test, handed in by run.sh (or
// by abcompare) through PERFBENCH_REV; a checkout that is not a git
// repository reports "unknown".
func revision() string {
	if r := strings.TrimSpace(os.Getenv("PERFBENCH_REV")); r != "" {
		return r
	}
	return "unknown"
}

// cpuTicks returns the host's cumulative CPU ticks, all and stolen by
// the hypervisor, from /proc/stat's first line (zeros where it is
// missing). Steal is time the host's virtual CPUs were runnable but not
// run: it stretches every wall time the benchmark reports.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// printSteal reports the share of host CPU time stolen since the
// cpuTicks reading (total0, steal0).
func printSteal(out io.Writer, what string, total0, steal0 uint64) {
	total, steal := cpuTicks()
	if total <= total0 {
		fmt.Fprintf(out, "host: no /proc/stat steal figure for %s\n", what)
		return
	}
	fmt.Fprintf(out, "host: %.1f%% of CPU time stolen by the hypervisor during %s; wall times rise with it\n",
		100*float64(steal-steal0)/float64(total-total0), what)
}
