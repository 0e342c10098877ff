// Package core defines the sensor data model shared by every DCDB
// component: time-series readings, sensor metadata, the 128-bit Sensor ID
// (SID) and its mapping to hierarchical MQTT topics, and the sensor
// hierarchy tree used for navigation.
//
// In DCDB every data point of a monitored entity is called a sensor: a
// physical probe (temperature, power, flow), a CPU performance-counter
// event, the bandwidth of a network link, or the energy meter of a PDU.
// Each sensor's data is a time series of (timestamp, value) pairs; this
// format is enforced across the framework so that data from the facility,
// the system and applications stays uniform and comparable.
package core

import (
	"fmt"
	"time"
)

// Reading is a single data point of a sensor's time series.
type Reading struct {
	// Timestamp is the acquisition time in nanoseconds since the Unix
	// epoch. Readings within one sensor group share the same timestamp
	// because groups are read collectively (paper §4.1).
	Timestamp int64
	// Value is the numerical sensor value. DCDB enforces numerical
	// time-series values across all data sources.
	Value float64
}

// Time returns the reading's timestamp as a time.Time.
func (r Reading) Time() time.Time { return time.Unix(0, r.Timestamp) }

// String formats the reading as "<RFC3339Nano>,<value>".
func (r Reading) String() string {
	return fmt.Sprintf("%s,%g", r.Time().UTC().Format(time.RFC3339Nano), r.Value)
}

// Metadata describes the static properties of a sensor, configured via
// the dcdbconfig tool and stored alongside the time series.
type Metadata struct {
	// Topic is the unique MQTT topic of the sensor, e.g.
	// "/lrz/coolmuc3/rack01/chassis02/node03/cpu00/instructions".
	Topic string
	// PublicName is an optional human-readable alias.
	PublicName string
	// Unit is the physical unit of the readings (see package units).
	Unit string
	// Scale is a multiplicative factor applied when converting raw
	// readings to the declared unit.
	Scale float64
	// Interval is the sampling interval the sensor is configured with.
	Interval time.Duration
	// TTL is how long readings are retained in the Storage Backend;
	// zero means forever.
	TTL time.Duration
	// Integrable marks monotonically increasing counters whose rate
	// (derivative) is the quantity of interest.
	Integrable bool
	// Virtual marks sensors evaluated from an expression rather than
	// sampled (see package vsensor).
	Virtual bool
	// Expression holds the arithmetic expression of a virtual sensor.
	Expression string
}

// Validate reports whether the metadata is internally consistent.
func (m *Metadata) Validate() error {
	if m.Topic == "" {
		return fmt.Errorf("core: metadata without topic")
	}
	if _, err := ParseTopic(m.Topic); err != nil {
		return fmt.Errorf("core: metadata topic %q: %w", m.Topic, err)
	}
	if m.Virtual && m.Expression == "" {
		return fmt.Errorf("core: virtual sensor %q without expression", m.Topic)
	}
	if !m.Virtual && m.Expression != "" {
		return fmt.Errorf("core: non-virtual sensor %q with expression", m.Topic)
	}
	if m.Scale < 0 {
		return fmt.Errorf("core: sensor %q with negative scale", m.Topic)
	}
	return nil
}

// EffectiveScale returns the scale factor, defaulting to 1 when unset.
func (m *Metadata) EffectiveScale() float64 {
	if m.Scale == 0 {
		return 1
	}
	return m.Scale
}
