package main

import (
	"smartoclock/internal/core"
	"smartoclock/internal/trace"
)

// traceHost is the fleet simulator's server model rebuilt from public
// types: it replays a server's baseline power trace and adds the modeled
// overclock power of the frequencies the sOA sets, serving as core.Host
// for the sOA and power.Server for the rack manager. The simulator's own
// copy is unexported; this one must stay arithmetically identical, which
// the traced drivers' anchor checks enforce on every traced run.
type traceHost struct {
	name       string
	turbo      int
	maxOC      int
	stepMHz    int
	minMHz     int
	cores      int
	ocCoreCost float64
	desired    []int
	capLevel   int
	basePower  float64
	util       float64
}

func newTraceHost(st *trace.ServerTrace) *traceHost {
	hw := st.Spec.HW
	h := &traceHost{
		name:       st.Spec.Name,
		turbo:      hw.TurboMHz,
		maxOC:      hw.MaxOCMHz,
		stepMHz:    hw.StepMHz,
		minMHz:     hw.MinMHz,
		cores:      hw.Cores,
		ocCoreCost: hw.OCCoreCost(),
		desired:    make([]int, hw.Cores),
	}
	for i := range h.desired {
		h.desired[i] = h.turbo
	}
	return h
}

func (h *traceHost) setTick(baseWatts, util float64) {
	h.basePower = baseWatts
	h.util = util
}

func (h *traceHost) Name() string             { return h.name }
func (h *traceHost) NumCores() int            { return h.cores }
func (h *traceHost) TurboMHz() int            { return h.turbo }
func (h *traceHost) MaxOCMHz() int            { return h.maxOC }
func (h *traceHost) StepMHz() int             { return h.stepMHz }
func (h *traceHost) CoreUtil(int) float64     { return h.util }
func (h *traceHost) DesiredFreq(core int) int { return h.desired[core] }
func (h *traceHost) CapPriority() int         { return 0 }
func (h *traceHost) CapLevel() int            { return h.capLevel }

func (h *traceHost) SetDesiredFreq(core, mhz int) {
	if mhz < h.minMHz {
		mhz = h.minMHz
	}
	if mhz > h.maxOC {
		mhz = h.maxOC
	}
	h.desired[core] = mhz - mhz%h.stepMHz
}

func (h *traceHost) capCeiling() int {
	c := h.maxOC - h.capLevel*h.stepMHz
	if c < h.minMHz {
		c = h.minMHz
	}
	return c
}

func (h *traceHost) effectiveFreq(core int) int {
	f := h.desired[core]
	if c := h.capCeiling(); f > c {
		f = c
	}
	return f
}

func (h *traceHost) ocFraction(freq int) float64 {
	if freq <= h.turbo {
		return 0
	}
	return float64(freq-h.turbo) / float64(h.maxOC-h.turbo)
}

func (h *traceHost) Power() float64 {
	ceil := h.capCeiling()
	base := h.basePower
	if ceil < h.turbo {
		base *= float64(ceil) / float64(h.turbo)
	}
	uf := h.util
	if uf < 0.3 {
		uf = 0.3
	}
	oc := 0.0
	for _, f := range h.desired {
		if f > h.turbo {
			eff := f
			if eff > ceil {
				eff = ceil
			}
			oc += h.ocCoreCost * h.ocFraction(eff) * uf
		}
	}
	return base + oc
}

func (h *traceHost) OCDeltaWatts(cores, mhz int, util float64) float64 {
	if mhz > h.maxOC {
		mhz = h.maxOC
	}
	if util < 0.3 {
		util = 0.3
	}
	return float64(cores) * h.ocCoreCost * h.ocFraction(mhz) * util
}

func (h *traceHost) MaxCapLevel() int { return (h.maxOC - h.minMHz + h.stepMHz - 1) / h.stepMHz }

func (h *traceHost) ForceCap(level int) {
	if level < 0 {
		level = 0
	}
	if max := h.MaxCapLevel(); level > max {
		level = max
	}
	h.capLevel = level
}

func (h *traceHost) hasOC() bool {
	for _, f := range h.desired {
		if f > h.turbo {
			return true
		}
	}
	return false
}

// sessionEffectiveRatio is a session's mean post-cap frequency over turbo.
func sessionEffectiveRatio(h *traceHost, s *core.Session) float64 {
	if len(s.Cores) == 0 {
		return 1
	}
	sum := 0.0
	for _, c := range s.Cores {
		sum += float64(h.effectiveFreq(c))
	}
	return sum / float64(len(s.Cores)) / float64(h.turbo)
}
