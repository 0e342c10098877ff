// Package facility simulates the warm-water-cooled CooLMUC-3
// installation of the paper's first case study (§7.1): a 100 %
// liquid-cooled system — compute nodes, power supplies and network
// switches — with thermally insulated racks and a broadly instrumented
// cooling loop. The model produces the correlated signals Figure 9
// plots over 24 hours: total electrical power, inlet water temperature,
// and the heat removed by the liquid circuit, whose ratio to power sits
// around 90 % independent of inlet temperature.
package facility

import (
	"math"
	"time"
)

// CoolingCircuit is a deterministic plant model. All outputs are pure
// functions of the elapsed time since Start, so out-of-band Pushers
// sampling via different protocols see consistent values.
type CoolingCircuit struct {
	// Start anchors the simulation clock.
	Start time.Time
	// BasePowerKW is the idle electrical draw of the system.
	BasePowerKW float64
	// PeakPowerKW is the maximum draw under full job load.
	PeakPowerKW float64
	// Efficiency is the fraction of electrical power removed as heat
	// by the water loop (≈0.90 for CooLMUC-3).
	Efficiency float64
	// InletMinC and InletMaxC bound the inlet water temperature ramp
	// the facility sweeps during the experiment.
	InletMinC, InletMaxC float64
	// RampPeriod is the duration of one inlet temperature sweep.
	RampPeriod time.Duration
}

// NewCoolMUC3 returns the circuit parameterised like the case study:
// 10–35 kW power band, 90 % heat-removal efficiency, inlet temperature
// swept between 25 °C and 45 °C over 24 hours.
func NewCoolMUC3(start time.Time) *CoolingCircuit {
	return &CoolingCircuit{
		Start:       start,
		BasePowerKW: 12,
		PeakPowerKW: 34,
		Efficiency:  0.90,
		InletMinC:   25,
		InletMaxC:   45,
		RampPeriod:  24 * time.Hour,
	}
}

// PowerKW returns the system's total electrical power at time t. Job
// load varies through the day: a slow daily swell with superimposed
// job-start/stop steps.
func (c *CoolingCircuit) PowerKW(t time.Time) float64 {
	e := t.Sub(c.Start).Seconds()
	day := math.Sin(2 * math.Pi * e / c.RampPeriod.Seconds())
	// Job churn: deterministic steps every ~47 min.
	step := math.Sin(2*math.Pi*e/2820) + 0.5*math.Sin(2*math.Pi*e/1130)
	frac := 0.55 + 0.3*day + 0.08*step
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return c.BasePowerKW + frac*(c.PeakPowerKW-c.BasePowerKW)
}

// InletTempC returns the cooling-loop inlet water temperature at t: a
// triangular sweep between InletMinC and InletMaxC over RampPeriod,
// which is how the case study explored efficiency across temperatures.
func (c *CoolingCircuit) InletTempC(t time.Time) float64 {
	e := math.Mod(t.Sub(c.Start).Seconds(), c.RampPeriod.Seconds())
	half := c.RampPeriod.Seconds() / 2
	frac := e / half
	if frac > 1 {
		frac = 2 - frac
	}
	return c.InletMinC + frac*(c.InletMaxC-c.InletMinC)
}

// FlowKgS returns the coolant mass flow in kg/s; the facility modulates
// it mildly with load.
func (c *CoolingCircuit) FlowKgS(t time.Time) float64 {
	load := (c.PowerKW(t) - c.BasePowerKW) / (c.PeakPowerKW - c.BasePowerKW)
	return 1.2 + 0.5*load
}

// HeatRemovedKW returns the heat carried away by the water loop at t.
// The insulated racks keep the efficiency essentially flat across inlet
// temperatures (the paper's key observation); a small deterministic
// ripple stands in for sensor noise.
func (c *CoolingCircuit) HeatRemovedKW(t time.Time) float64 {
	e := t.Sub(c.Start).Seconds()
	ripple := 0.012 * math.Sin(2*math.Pi*e/613)
	return c.PowerKW(t) * (c.Efficiency + ripple)
}
