// Package units is the unit registry behind the automatic conversion of
// virtual sensors. When a virtual-sensor expression combines sensors
// recorded in different units (paper §3.2: "the units of the underlying
// physical sensors are converted automatically"), the evaluator looks
// each operand's unit up here and normalises it to the base unit of its
// dimension before evaluation.
//
// A unit converts to base as base = value*Factor + Offset; the offset is
// only non-zero for temperatures (°C/°F to K). A unit the registry does
// not know passes through unconverted.
package units

import "strings"

// Dimension identifies a physical dimension; units convert only within
// their dimension.
type Dimension string

// The dimensions known to DCDB's sensor space.
const (
	Power       Dimension = "power"       // base W
	Energy      Dimension = "energy"      // base J
	Temperature Dimension = "temperature" // base K
	Time        Dimension = "time"        // base s
	Frequency   Dimension = "frequency"   // base Hz
	Data        Dimension = "data"        // base B
	DataRate    Dimension = "datarate"    // base B/s
	FlowRate    Dimension = "flowrate"    // base m3/s
	Fraction    Dimension = "fraction"    // base ratio (1.0 = 100 %)
	Count       Dimension = "count"       // base events
	Voltage     Dimension = "voltage"     // base V
	Current     Dimension = "current"     // base A
	None        Dimension = ""            // dimensionless / unknown
)

// Unit describes one entry of the registry.
type Unit struct {
	Name   string
	Dim    Dimension
	Factor float64
	Offset float64
}

var registry = map[string]Unit{}

func register(name string, dim Dimension, factor, offset float64) {
	registry[name] = Unit{Name: name, Dim: dim, Factor: factor, Offset: offset}
}

func init() {
	// Power.
	register("W", Power, 1, 0)
	register("mW", Power, 1e-3, 0)
	register("uW", Power, 1e-6, 0)
	register("kW", Power, 1e3, 0)
	register("MW", Power, 1e6, 0)
	// Energy.
	register("J", Energy, 1, 0)
	register("mJ", Energy, 1e-3, 0)
	register("uJ", Energy, 1e-6, 0)
	register("kJ", Energy, 1e3, 0)
	register("Wh", Energy, 3600, 0)
	register("kWh", Energy, 3.6e6, 0)
	// Temperature.
	register("K", Temperature, 1, 0)
	register("C", Temperature, 1, 273.15)
	register("degC", Temperature, 1, 273.15)
	register("mC", Temperature, 1e-3, 273.15) // millidegrees C, as in sysfs hwmon
	register("F", Temperature, 5.0/9.0, 255.3722222222222)
	// Time.
	register("s", Time, 1, 0)
	register("ms", Time, 1e-3, 0)
	register("us", Time, 1e-6, 0)
	register("ns", Time, 1e-9, 0)
	register("min", Time, 60, 0)
	register("h", Time, 3600, 0)
	// Frequency.
	register("Hz", Frequency, 1, 0)
	register("kHz", Frequency, 1e3, 0)
	register("MHz", Frequency, 1e6, 0)
	register("GHz", Frequency, 1e9, 0)
	// Data.
	register("B", Data, 1, 0)
	register("kB", Data, 1e3, 0)
	register("MB", Data, 1e6, 0)
	register("GB", Data, 1e9, 0)
	register("KiB", Data, 1024, 0)
	register("MiB", Data, 1024*1024, 0)
	register("GiB", Data, 1024*1024*1024, 0)
	// Data rate.
	register("B/s", DataRate, 1, 0)
	register("kB/s", DataRate, 1e3, 0)
	register("MB/s", DataRate, 1e6, 0)
	register("GB/s", DataRate, 1e9, 0)
	// Flow rate.
	register("m3/s", FlowRate, 1, 0)
	register("m3/h", FlowRate, 1.0/3600, 0)
	register("l/min", FlowRate, 1e-3/60, 0)
	register("l/s", FlowRate, 1e-3, 0)
	// Fraction.
	register("ratio", Fraction, 1, 0)
	register("%", Fraction, 1e-2, 0)
	register("percent", Fraction, 1e-2, 0)
	// Counters.
	register("events", Count, 1, 0)
	register("instructions", Count, 1, 0)
	register("packets", Count, 1, 0)
	// Electrical.
	register("V", Voltage, 1, 0)
	register("mV", Voltage, 1e-3, 0)
	register("A", Current, 1, 0)
	register("mA", Current, 1e-3, 0)
}

// Lookup returns the unit with the given name. Exact (case-sensitive)
// matches win; otherwise a case-insensitive match is accepted when it is
// unambiguous (so "w" finds W, but "mw" stays ambiguous between mW and
// MW and is rejected).
func Lookup(name string) (Unit, bool) {
	if u, ok := registry[name]; ok {
		return u, true
	}
	var found Unit
	n := 0
	for k, u := range registry {
		if strings.EqualFold(k, name) {
			found = u
			n++
		}
	}
	if n == 1 {
		return found, true
	}
	return Unit{}, false
}
