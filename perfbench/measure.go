package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// opResult is what one run of a workload's operation produced.
type opResult struct {
	// racks is the number of rack simulations the operation ran.
	racks int
	// serverTicks is simulated servers × evaluated ticks, summed over every
	// rack simulation.
	serverTicks float64
	// digest is the canonical text of the simulated outputs: equal inputs
	// must give an equal digest, and the reference check hashes it.
	digest string
	// checked counts the outputs checked (runs; zoo: cells) and failed
	// those that reported invariant violations.
	checked, failed int
	// info is a line of simulated statistics printed once per run; it is
	// not a performance metric.
	info string
	// keep holds the operation's full output until measure has read the
	// live heap once more after the operation returns.
	keep any
}

// opCost is the host cost of one operation.
type opCost struct {
	wall time.Duration
	// cpu is the process's user+system CPU time, every thread included
	// (the collector's too). Unlike wall time it does not grow while the
	// process waits for a CPU other tenants of the host are using.
	cpu        time.Duration
	peakHeap   uint64 // sampled peak live heap above the post-GC baseline
	allocBytes uint64 // cumulative heap allocation
}

// heapSampleEvery is the live-heap sampling cadence. runtime/metrics reads
// do not stop the world, so sampling this often costs little.
const heapSampleEvery = 5 * time.Millisecond

func readSample(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measure runs op once on a settled heap and returns its result and cost.
func measure(op func() (opResult, error)) (opResult, opCost, error) {
	runtime.GC()
	// Live heap as of the latest GC: what the operation keeps reachable,
	// without the garbage a sample between collections would also count.
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	base := readSample(heap)
	alloc0 := readSample(allocs)

	var peak atomic.Uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: heap[0].Name}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			if v := readSample(s); v > peak.Load() {
				peak.Store(v)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	cpu0 := processCPU()
	start := time.Now()
	res, err := op()
	wall := time.Since(start)
	cpu := processCPU() - cpu0
	close(stop)
	<-done

	cost := opCost{wall: wall, cpu: cpu, allocBytes: readSample(allocs) - alloc0}
	// The output is still reachable here, so the live heap after one more
	// collection is a lower bound on the peak that does not depend on when
	// the operation's own collections happened to run.
	runtime.GC()
	if v := readSample(heap); v > peak.Load() {
		peak.Store(v)
	}
	runtime.KeepAlive(res.keep)
	res.keep = nil
	if p := peak.Load(); p > base {
		cost.peakHeap = p - base
	}
	return res, cost, err
}

// processCPU is the user+system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCounters reads the GC cycle count and total stop-the-world pause.
func gcCounters() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}
