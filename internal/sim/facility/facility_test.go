package facility

import (
	"testing"
	"time"
)

func TestCoolMUC3SignalsWithinPhysicalBounds(t *testing.T) {
	start := time.Unix(1_600_000_000, 0)
	c := NewCoolMUC3(start)
	for h := 0; h < 24; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		p := c.PowerKW(at)
		if p < c.BasePowerKW || p > c.PeakPowerKW {
			t.Errorf("hour %d: power %v outside [%v,%v]", h, p, c.BasePowerKW, c.PeakPowerKW)
		}
		in := c.InletTempC(at)
		if in < c.InletMinC-0.01 || in > c.InletMaxC+0.01 {
			t.Errorf("hour %d: inlet %v outside [%v,%v]", h, in, c.InletMinC, c.InletMaxC)
		}
		if f := c.FlowKgS(at); f <= 0 {
			t.Errorf("hour %d: flow %v", h, f)
		}
	}
}

func TestEfficiencyNearNinetyPercent(t *testing.T) {
	// The case study's headline (Figure 9): heat removed over power
	// sits around 90 % independent of inlet temperature.
	start := time.Unix(0, 0)
	c := NewCoolMUC3(start)
	for h := 1; h < 24; h += 3 {
		at := start.Add(time.Duration(h) * time.Hour)
		if eff := c.HeatRemovedKW(at) / c.PowerKW(at); eff < 0.80 || eff > 1.0 {
			t.Errorf("hour %d: efficiency %v far from 0.90", h, eff)
		}
	}
}

func TestDeterministicAcrossReaders(t *testing.T) {
	// Out-of-band Pushers sample the same plant over different
	// protocols; both must see identical values at the same instant.
	start := time.Unix(12345, 0)
	a, b := NewCoolMUC3(start), NewCoolMUC3(start)
	at := start.Add(7 * time.Hour)
	if a.PowerKW(at) != b.PowerKW(at) || a.InletTempC(at) != b.InletTempC(at) {
		t.Error("two readers disagree at the same instant")
	}
}
