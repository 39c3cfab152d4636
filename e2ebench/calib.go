package main

import (
	"slices"
	"time"
)

// The reference box is a shared 2-vCPU VM whose speed changes by up to
// twofold within minutes as its neighbours come and go. The drift cannot
// be averaged away inside one run, so the time metrics are calibrated:
// a fixed loop that lives in this package (and so never changes with
// the simulator) runs between cells, at least once per pass, and each
// pass is divided by the mean loop time inside it. The ratio is
// multiplied by refLoopSeconds, the loop's typical time on the
// reference box, so pass_s and setup_s read as seconds on that box. The
// loop churns fresh Go maps much as the simulator's page tables and
// fragmenters do, so it slows under most of the same neighbour load
// the simulator slows under, though not all of it: in one slow spell
// the loop slowed 1.8x while the micro pass slowed 1.4x.

// refLoopSeconds is calibrationLoop's typical wall time on the
// reference box (2-vCPU x86-64 VM, Go 1.24).
const refLoopSeconds = 0.03

// calEvery is the least cell time between two calibration loops: about
// one loop per 0.25 s of simulation, a tenth of the measured time.
const calEvery = 250 * time.Millisecond

const (
	loopIters  = 300000
	loopWindow = 1 << 15
)

// calibrationLoop runs a fixed amount of map churn and returns its wall
// time: keys from a fixed LCG stream go into a fresh map, and each key
// leaves again loopWindow insertions later. The map is fresh each time
// because Go seeds every map's hash at random: one long-lived map would
// carry one seed's luck through the whole run.
func calibrationLoop() time.Duration {
	t0 := time.Now()
	m := make(map[uint64]uint64)
	var ring [loopWindow]uint64
	x := uint64(1)
	for i := 0; i < loopIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 44
		m[k] += uint64(i)
		slot := &ring[i%loopWindow]
		if i >= loopWindow {
			delete(m, *slot)
		}
		*slot = k
	}
	return time.Since(t0)
}

// calibrator spreads calibration loops over timed passes.
type calibrator struct {
	since, sum time.Duration
	n          int
	// loops holds every loop time, for the run's comment line.
	loops []time.Duration
}

// cellDone accounts one cell's wall time and runs a loop once calEvery
// of cell time has passed since the last one.
func (c *calibrator) cellDone(d time.Duration) {
	c.since += d
	if c.since >= calEvery {
		c.loop()
	}
}

func (c *calibrator) loop() {
	d := calibrationLoop()
	c.loops = append(c.loops, d)
	c.sum += d
	c.n++
	c.since = 0
}

// reference converts a pass's wall time to reference-box seconds,
// running a closing loop if the pass was too short to get one.
func (c *calibrator) reference(wall time.Duration) float64 {
	if c.n == 0 {
		c.loop()
	}
	loop := c.sum.Seconds() / float64(c.n)
	c.sum, c.n = 0, 0
	return wall.Seconds() / loop * refLoopSeconds
}

func medianFloat(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
