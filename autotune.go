package nbody

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// AutotuneResult records one replication factor's trial.
type AutotuneResult struct {
	C       int
	PerStep time.Duration
	Err     error // non-nil when the factor is infeasible
}

// AutotuneC empirically selects the replication factor, the strategy the
// paper leaves as future work ("c ... can be autotuned at runtime by
// trying multiple factors"): it runs trialSteps timesteps of cfg for
// every feasible candidate c and returns the fastest, together with all
// trial results sorted by c.
//
// Candidates may be nil, in which case every divisor-compatible power of
// two up to √p (all-pairs) or the cutoff window (cutoff runs) is tried.
func AutotuneC(cfg Config, trialSteps int, candidates []int) (int, []AutotuneResult, error) {
	cfg = cfg.withDefaults()
	if trialSteps <= 0 {
		trialSteps = 3
	}
	if candidates == nil {
		for c := 1; c*c <= cfg.P; c *= 2 {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) == 0 {
		return 0, nil, fmt.Errorf("nbody: no autotune candidates")
	}
	results := make([]AutotuneResult, 0, len(candidates))
	bestC, bestT := 0, time.Duration(0)
	for _, c := range candidates {
		trial := cfg
		trial.C = c
		res := AutotuneResult{C: c}
		sim, err := New(trial)
		if err != nil {
			res.Err = err
			results = append(results, res)
			continue
		}
		start := time.Now()
		if err := sim.Run(trialSteps); err != nil {
			res.Err = err
			results = append(results, res)
			continue
		}
		res.PerStep = time.Since(start) / time.Duration(trialSteps)
		results = append(results, res)
		if bestC == 0 || res.PerStep < bestT {
			bestC, bestT = c, res.PerStep
		}
	}
	if bestC == 0 {
		return 0, results, fmt.Errorf("nbody: no feasible replication factor among %v", candidates)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].C < results[j].C })
	return bestC, results, nil
}

// WorkerTuneResult records one worker-pool width's trial.
type WorkerTuneResult struct {
	Workers int
	PerStep time.Duration
	Err     error // non-nil when the width is infeasible
}

// AutotuneWorkers empirically selects the intra-rank worker-pool width
// the same way AutotuneC selects the replication factor: it runs
// trialSteps timesteps of cfg at every candidate width and returns the
// fastest, together with all trial results sorted by width. Results
// are bitwise-identical across widths (the pool's determinism
// contract), so the choice is purely a speed question — which makes it
// safe to tune on a short prefix of a long run.
//
// Candidates may be nil, in which case the powers of two from 1 up to
// the oversubscription bound GOMAXPROCS/P (always including 1) are
// tried.
func AutotuneWorkers(cfg Config, trialSteps int, candidates []int) (int, []WorkerTuneResult, error) {
	cfg = cfg.withDefaults()
	if trialSteps <= 0 {
		trialSteps = 3
	}
	if candidates == nil {
		bound := runtime.GOMAXPROCS(0) / cfg.P
		for w := 1; w <= bound || w == 1; w *= 2 {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		return 0, nil, fmt.Errorf("nbody: no autotune candidates")
	}
	results := make([]WorkerTuneResult, 0, len(candidates))
	bestW, bestT := 0, time.Duration(0)
	for _, w := range candidates {
		trial := cfg
		trial.Workers = w
		res := WorkerTuneResult{Workers: w}
		sim, err := New(trial)
		if err != nil {
			res.Err = err
			results = append(results, res)
			continue
		}
		start := time.Now()
		if err := sim.Run(trialSteps); err != nil {
			res.Err = err
			results = append(results, res)
			continue
		}
		res.PerStep = time.Since(start) / time.Duration(trialSteps)
		results = append(results, res)
		if bestW == 0 || res.PerStep < bestT {
			bestW, bestT = w, res.PerStep
		}
	}
	if bestW == 0 {
		return 0, results, fmt.Errorf("nbody: no feasible worker width among %v", candidates)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Workers < results[j].Workers })
	return bestW, results, nil
}
