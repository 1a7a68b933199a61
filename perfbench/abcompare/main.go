// Command abcompare measures a revision of the program against the
// working tree with the same benchmark code and settings, and applies
// the benchmark's verdict rule to every end-to-end metric.
//
//	cd perfbench && go run ./abcompare REV
//
// It extracts REV with git archive into .bench_build/ab/parent, lays
// this working tree's perfbench/ and BENCHMARK.json over it (so both
// sides run identical benchmark code and settings), and builds both.
// For every workload of BENCHMARK.json it runs 10 pairs, each run as
// long as BENCHMARK.json's run_seconds: pair i runs both sides on seed
// i, alternating which side goes first. For each workload and metric it
// prints each side's median and quartiles, the change's win fraction
// and the verdict (gain, no-worse, regression or unresolved) against
// the metric's bound in BENCHMARK.json.
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/perfbench/spec"
	"repro/perfbench/stats"
)

// pairs is how many parent/change pairs each workload gets: the fewest
// the verdict rule accepts.
const pairs = 10

type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abcompare:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) != 2 {
		return errors.New("usage: abcompare REV")
	}
	rev := os.Args[1]
	root, err := gitOut("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	sp, err := spec.Load(filepath.Join(root, spec.File))
	if err != nil {
		return err
	}

	work := filepath.Join(root, ".bench_build", "ab")
	parentTree := filepath.Join(work, "parent")
	if err := os.RemoveAll(parentTree); err != nil {
		return err
	}
	if err := extract(root, rev, parentTree); err != nil {
		return err
	}
	if err := overlay(filepath.Join(root, "perfbench"), filepath.Join(parentTree, "perfbench")); err != nil {
		return err
	}
	if err := copyFile(filepath.Join(root, spec.File), filepath.Join(parentTree, spec.File)); err != nil {
		return err
	}
	parentRev, err := gitOut(root, "rev-parse", "--short", rev)
	if err != nil {
		return err
	}
	changeRev, _ := gitOut(root, "rev-parse", "--short", "HEAD")
	changeRev += "+worktree"
	sides := []side{
		{name: "parent", tree: parentTree, rev: parentRev, bin: filepath.Join(work, "parent.bin")},
		{name: "change", tree: root, rev: changeRev, bin: filepath.Join(work, "change.bin")},
	}
	for _, s := range sides {
		if err := s.build(root); err != nil {
			return err
		}
	}

	for _, wl := range sp.Workloads {
		runs := [2]map[string][]float64{{}, {}}
		for i := 0; i < pairs; i++ {
			s := uint64(i + 1)
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, k := range order {
				res, err := sides[k].run(wl.Name, s, sp.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s %s seed %d: %w", sides[k].name, wl.Name, s, err)
				}
				for name, m := range res.Metrics {
					runs[k][name] = append(runs[k][name], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "abcompare: %s pair %d/%d done\n", wl.Name, i+1, pairs)
		}
		fmt.Printf("\n== %s: parent %s vs change %s, %d pairs, %ds runs\n", wl.Name, parentRev, changeRev, pairs, sp.RunSeconds)
		fmt.Printf("%-20s %-8s %28s %28s %6s %8s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "win", "worse", "verdict (bound)")
		for _, m := range sp.EndToEnd {
			c, err := stats.Compare(runs[0][m.Name], runs[1][m.Name], m.Better == "lower", m.Bound)
			if err != nil {
				return fmt.Errorf("%s %s: %w", wl.Name, m.Name, err)
			}
			fmt.Printf("%-20s %-8s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %6.2f %+7.1f%%  %s (%.0f%%)\n",
				m.Name, m.Unit, c.ParentMed, c.ParentQ1, c.ParentQ3, c.ChangeMed, c.ChangeQ1, c.ChangeQ3,
				c.WinFrac, 100*c.Worse, c.Verdict, 100*m.Bound)
		}
	}
	return nil
}

// side is one program revision under test.
type side struct {
	name, tree, rev, bin string
}

// goEnv keeps the toolchain offline and its caches inside the
// repository's .bench_build.
func goEnv(root string) []string {
	b := filepath.Join(root, ".bench_build")
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(b, "gocache"), "GOTOOLCHAIN=local", "GOPROXY=off",
		"GOFLAGS=-mod=readonly", "GOWORK=off")
}

func (s side) build(root string) error {
	cmd := exec.Command("go", "build", "-o", s.bin, ".")
	cmd.Dir = filepath.Join(s.tree, "perfbench")
	cmd.Env = goEnv(root)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build %s: %v\n%s", s.name, err, out)
	}
	return nil
}

// run executes one benchmark run from the side's tree root and parses
// its result line.
func (s side) run(workload string, seed uint64, seconds int) (runResult, error) {
	cmd := exec.Command(s.bin, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = s.tree
	cmd.Env = append(os.Environ(), "PERFBENCH_REV="+s.rev)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, fmt.Errorf("%v: %s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runResult{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return runResult{}, errors.New("run reported correct=false")
	}
	return res, nil
}

func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// extract writes the files of rev (git archive) under dst.
func extract(root, rev, dst string) error {
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	tr := tar.NewReader(bytes.NewReader(out))
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("git archive %s: %w", rev, err)
		}
		path := filepath.Join(dst, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, filepath.Clean(dst)+string(filepath.Separator)) {
			return fmt.Errorf("git archive %s: entry %q escapes the tree", rev, h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := writeFile(path, tr, fs.FileMode(h.Mode)&0o755|0o644); err != nil {
				return err
			}
		}
	}
}

// overlay copies every regular file under src to the same place under
// dst, replacing what is there.
func overlay(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		return copyFile(path, filepath.Join(dst, rel))
	})
}

// copyFile copies the regular file src to dst, replacing what is there.
func copyFile(src, dst string) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	return writeFile(dst, f, 0o644)
}

func writeFile(path string, r io.Reader, mode fs.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
