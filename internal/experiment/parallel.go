package experiment

import (
	"runtime"

	"ftss/internal/pool"
)

// The experiments are embarrassingly parallel across repetitions: every
// (seed, parameter-point) run builds its own engine, adversary, history,
// and RNG from the repetition seed, shares nothing mutable, and is
// deterministic. The helpers below fan repetitions across the bounded
// worker pool (internal/pool) and take the results back in index order,
// so aggregation — and therefore every rendered table — is byte-identical
// to a sequential run regardless of Workers.

// runSeeds evaluates fn once per repetition seed, cfg.BaseSeed+1 through
// cfg.BaseSeed+Seeds, across cfg.workers() goroutines, and returns the
// results in seed order. fn must derive all randomness from its seed
// argument and must not share mutable state across calls.
func runSeeds[T any](cfg Config, fn func(seed int64) T) []T {
	out := pool.Run(cfg.workers(), cfg.Seeds, func(i int) T {
		return fn(cfg.BaseSeed + 1 + int64(i))
	})
	cfg.countRepetitions(len(out))
	return out
}

// runPoints evaluates fn once per parameter point across cfg.workers()
// goroutines and returns the results in point order. Used by experiments
// whose repetition axis is a scenario list rather than a seed range.
func runPoints[P, T any](cfg Config, points []P, fn func(p P) T) []T {
	out := pool.Run(cfg.workers(), len(points), func(i int) T {
		return fn(points[i])
	})
	cfg.countRepetitions(len(out))
	return out
}

// workers resolves the configured worker count: Workers if positive, else
// GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}
