package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The machine the benchmark runs on is shared. Neighbours on the host
// change its speed by up to 40%, also within one run, and that moves all
// of a run's timings together. So each run also times a fixed reference kernel,
// which does not use the library, inside each of its phases. It reports
// its timings scaled by refNominal / the kernel's median time in that
// phase. Times taken only before and after a run tracked these swings too
// poorly to narrow the seed-to-seed spread.
//
// The kernel must not be slowed by the code under test, or a regression
// that adds garbage or busy goroutines would slow the kernel too and so
// partly hide itself. So a sample is taken only at a quiescent point:
// between ops, after a full garbage collection, with no reader running
// (see openLoop). The kernel allocates nothing, so no collection starts
// while it runs.

// refNominal is the kernel's time on that machine when quiet, so scaled
// timings read as seconds there.
const refNominal = 0.125

// refEvery is how often a phase samples the kernel.
const refEvery = time.Second

// refInput is the kernel's input: 2^20 pseudo-random float64s (8 MiB), so
// that, like builds and reads, the kernel depends on the memory hierarchy
// as well as the core.
var refInput = func() []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<20)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	return xs
}()

// refScratch is the kernel's working copy of refInput, allocated once so
// that sampling allocates nothing. Phases sample one at a time.
var refScratch = make([]float64, len(refInput))

// refClock samples the reference kernel, sorting a copy of refInput,
// through one phase.
type refClock struct {
	samples []float64
	last    time.Time
	// cost is how long the last sample took, collection included.
	cost time.Duration
}

// sample finishes any collection in progress, plus one more cycle, and
// times the kernel once. The caller keeps the library idle meanwhile.
func (c *refClock) sample() {
	begin := time.Now()
	runtime.GC()
	copy(refScratch, refInput)
	start := time.Now()
	sort.Float64s(refScratch)
	c.samples = append(c.samples, time.Since(start).Seconds())
	c.last = time.Now()
	c.cost = c.last.Sub(begin)
}

// tick samples once refEvery has passed since the last sample.
func (c *refClock) tick() {
	if time.Since(c.last) >= refEvery {
		c.sample()
	}
}

// scale converts the phase's raw timings to scaled ones.
func (c *refClock) scale() float64 { return refNominal / median(c.samples) }
