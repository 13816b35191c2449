package main

// Host-speed calibration. The benchmark runs on a shared host whose speed
// drifts over minutes: on the 2-vCPU sandbox the same repro pass took
// from 1.0 s to 2.6 s within half an hour, with the process's CPU time
// following, and a stream unit from 0.4 s to 1.2 s. No median inside one
// run removes a drift that slow, so the end-to-end times are reported at
// a reference host speed, measured by a fixed calibration kernel run
// beside the work.
//
// The kernel is a register-only integer loop in the benchmark's own code.
// It calls nothing in velociti and touches no memory, so neither a change
// to the program nor the heap the program holds moves it; only the host
// does. Over 347 pairs of a unit and the kernel run just before it, on
// the four unit-timed workloads while the host drifted, the log of the
// unit's time rose with the log of the kernel's with a slope of 1.4 to
// 2.5 by workload, and between a quiet and a slow host the workloads
// slowed by about the square of the kernel's slowdown. So a time t
// measured in a run whose kernel median is c is reported as
// t * (calRefSeconds / c)^2, the time it would take on a host where the
// kernel takes calRefSeconds. Over runs of the same code this cut the
// spread of the run medians by a half to two thirds.

import (
	"math"
	"time"
)

const (
	// calRefSeconds is the kernel's time on the sandbox when the host was
	// quiet; it fixes the scale, so reference times read close to the
	// host times of a quiet host.
	calRefSeconds = 0.008
	// calExponent is the power of the kernel's slowdown that the work's
	// slowdown follows (see above).
	calExponent = 2
	// calReps is how many times calibrate runs the kernel; it keeps the
	// fastest, which an interrupt or a migration between CPUs cannot
	// inflate.
	calReps = 3
	// calIters is the kernel's loop length, about 8 ms on a quiet host.
	calIters = 5_000_000
)

// calSink keeps the kernel's result alive so the compiler cannot drop the
// loop.
var calSink uint64

// calibrate returns the kernel's host time, the fastest of calReps runs.
func calibrate() time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < calReps; i++ {
		t0 := time.Now()
		x := uint64(i + 1)
		for k := 0; k < calIters; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 17
		}
		calSink += x
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// refScale converts a host time t to the reference host speed, given the
// calibration times measured in the same run.
func refScale(t float64, cals []time.Duration) float64 {
	return t * math.Pow(calRefSeconds/median(seconds64(cals)), calExponent)
}
