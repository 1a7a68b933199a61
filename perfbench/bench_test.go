package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	nbody "repro"
	"repro/perfbench/spec"
)

// TestSmokeEveryWorkload runs each BENCHMARK.json workload at smoke-test
// size in both modes and requires clean checks and every listed metric.
func TestSmokeEveryWorkload(t *testing.T) {
	sp, err := spec.Load(filepath.Join("..", spec.File))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, t.TempDir()) // the benchmark writes its socket and span files under the working directory
	for _, ws := range sp.Workloads {
		w, err := findWorkload(ws.Name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.tiny()
		var out bytes.Buffer
		var tl tally
		vals, err := runEndToEnd(&out, w, 3, 200*time.Millisecond, 1, &tl)
		if err == nil {
			err = emit(&out, sp.EndToEnd, vals, tl.attempted, tl.failed)
		}
		if err != nil || tl.failed != 0 {
			t.Fatalf("%s end-to-end: %v, %d of %d failed\n%s", w.name, err, tl.failed, tl.attempted, out.String())
		}
		out.Reset()
		tl = tally{}
		path := spansPath(w.name, 3)
		vals, err = runTraced(&out, w, 3, 200*time.Millisecond, 1, path, stamp{Workload: w.name, Seed: 3}, &tl)
		if err == nil {
			err = emit(&out, sp.PerLayer, vals, tl.attempted, tl.failed)
		}
		if err != nil || tl.failed != 0 {
			t.Fatalf("%s traced: %v, %d of %d failed\n%s", w.name, err, tl.failed, tl.attempted, out.String())
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s: spans not written: %v", w.name, err)
		}
	}
}

// TestCountsRepeatExactly runs one seed twice: the exact counts must
// read identically.
func TestCountsRepeatExactly(t *testing.T) {
	chdir(t, t.TempDir())
	w, err := findWorkload("cutoff-1d")
	if err != nil {
		t.Fatal(err)
	}
	w = w.tiny()
	var first map[string]float64
	for i := 0; i < 2; i++ {
		var tl tally
		vals, err := runEndToEnd(&bytes.Buffer{}, w, 5, 50*time.Millisecond, countChunks, &tl)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = vals
			continue
		}
		for _, k := range []string{"s_msgs_per_step", "w_bytes_per_step"} {
			if vals[k] != first[k] {
				t.Errorf("%s: %v then %v", k, first[k], vals[k])
			}
		}
	}
}

// TestSelfTimes checks the span arithmetic: a parent's self time is its
// duration minus the union of its children's intervals.
func TestSelfTimes(t *testing.T) {
	list := []span{
		{ID: 0, Parent: -1, Name: "bench.root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.Run", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "core.Run", Start: 30, End: 50},     // overlaps span 1
		{ID: 3, Parent: 0, Name: "phys.Kernel", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "comm.Run", Start: 15, End: 20},
	}
	got := selfTimes(list)
	want := map[string]time.Duration{"bench": 100 - 40 - 10, "core": 25 + 20, "phys": 30, "comm": 5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self time %v, want %v", k, got[k], v)
		}
	}
}

// TestFailedRunExitsNonzero: an unknown workload is refused without a
// result line.
func TestFailedRunExitsNonzero(t *testing.T) {
	chdir(t, "..") // the repository root, where BENCHMARK.json is
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}

// tiny shrinks a workload to smoke-test size, keeping its decomposition.
func (w workload) tiny() workload {
	switch w.cfg.Algorithm {
	case nbody.CACutoff:
		w.cfg.N = 256
	case nbody.Midpoint:
		w.cfg.N = 144
	default:
		w.cfg.N = 128
	}
	return w
}

// chdir moves the test into dir for its duration.
func chdir(t *testing.T, dir string) {
	t.Helper()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(prev); err != nil {
			t.Error(err)
		}
	})
}
