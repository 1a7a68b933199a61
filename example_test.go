package nbody_test

import (
	"fmt"
	"log"

	nbody "repro"
)

// The basic workflow: configure, run, inspect communication, verify.
func ExampleNew() {
	sim, err := nbody.New(nbody.Config{N: 64, P: 16, C: 4, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(5); err != nil {
		log.Fatal(err)
	}
	worst, err := sim.VerifySerial()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steps=%d verified=%v\n", sim.Steps(), worst < 1e-9)
	// Output: steps=5 verified=true
}

// Predicting the paper's headline configuration: the best replication
// factor on 24,576 Hopper cores is interior (c=16), not the maximal √p.
func ExamplePredict() {
	best, bestC := 1e9, 0
	for _, c := range []int{1, 4, 16, 64} {
		b, err := nbody.Predict(nbody.Prediction{
			Machine: nbody.Hopper, P: 24576, N: 196608, C: c,
		})
		if err != nil {
			log.Fatal(err)
		}
		if b.Total() < best {
			best, bestC = b.Total(), c
		}
	}
	fmt.Printf("best c = %d\n", bestC)
	// Output: best c = 16
}

// Autotuning the replication factor at runtime, the paper's suggested
// future work.
func ExampleAutotuneC() {
	best, _, err := nbody.AutotuneC(nbody.Config{N: 64, P: 16}, 1, []int{1, 2, 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chose a feasible factor: %v\n", best == 1 || best == 2 || best == 4)
	// Output: chose a feasible factor: true
}

// Hierarchical parallelism: each rank tiles its force phase across an
// intra-rank worker pool. Results are bitwise-identical for every
// width, so the knob is purely a speed tradeoff (keep P × Workers
// within GOMAXPROCS).
func ExampleConfig_workers() {
	base := nbody.Config{N: 64, P: 4, Seed: 7}
	pooled := base
	pooled.Workers = 4
	a, err := nbody.New(base)
	if err != nil {
		log.Fatal(err)
	}
	b, err := nbody.New(pooled)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Run(5); err != nil {
		log.Fatal(err)
	}
	if err := b.Run(5); err != nil {
		log.Fatal(err)
	}
	identical := true
	pa, pb := a.Particles(), b.Particles()
	for i := range pa {
		if pa[i] != pb[i] {
			identical = false
		}
	}
	fmt.Printf("pooled run bitwise-identical=%v\n", identical)
	// Output: pooled run bitwise-identical=true
}

// Switching the decomposition: the midpoint method from the paper's
// related work computes each pair on the processor owning its midpoint.
func ExampleConfig() {
	sim, err := nbody.New(nbody.Config{
		N: 64, P: 16, Algorithm: nbody.Midpoint,
		Dim: 1, Cutoff: 4, Lattice: true, DT: 5e-4,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(3); err != nil {
		log.Fatal(err)
	}
	worst, err := sim.VerifySerial()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("midpoint verified=%v\n", worst < 1e-9)
	// Output: midpoint verified=true
}
