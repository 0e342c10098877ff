package units

import (
	"math"
	"testing"
)

func approx(a, b float64) bool {
	return math.Abs(a-b) < 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// toBase converts as the virtual-sensor evaluator does: a value of a
// registered unit in its dimension's base unit.
func toBase(t *testing.T, v float64, name string) float64 {
	t.Helper()
	u, ok := Lookup(name)
	if !ok {
		t.Fatalf("unit %q not registered", name)
	}
	return v*u.Factor + u.Offset
}

// toBaseCase is a value of a unit and the same value in its base unit.
type toBaseCase struct {
	v    float64
	unit string
	want float64
}

// checkToBase checks each case against the base unit named base, which
// must be registered with factor 1 and offset 0 in the same dimension.
func checkToBase(t *testing.T, base string, cases []toBaseCase) {
	t.Helper()
	b, ok := Lookup(base)
	if !ok || b.Factor != 1 || b.Offset != 0 {
		t.Fatalf("base unit %q: %+v, %v", base, b, ok)
	}
	for _, c := range cases {
		if u, _ := Lookup(c.unit); u.Dim != b.Dim {
			t.Errorf("%s is %q, not %q like its base unit %s", c.unit, u.Dim, b.Dim, base)
		}
		if got := toBase(t, c.v, c.unit); !approx(got, c.want) {
			t.Errorf("%v %s = %v %s, want %v", c.v, c.unit, got, base, c.want)
		}
	}
}

func TestConvertPower(t *testing.T) {
	checkToBase(t, "W", []toBaseCase{
		{1500, "mW", 1.5},
		{1.5, "kW", 1500},
		{2, "kW", 2000},
		{2, "MW", 2e6},
		{1e6, "uW", 1},
	})
}

func TestConvertTemperature(t *testing.T) {
	checkToBase(t, "K", []toBaseCase{
		{25, "C", 298.15},
		{25, "degC", 298.15},
		{32, "F", 273.15},
		{45000, "mC", 318.15},
	})
}

func TestConvertEnergyAndFlow(t *testing.T) {
	checkToBase(t, "J", []toBaseCase{{1, "kWh", 3.6e6}})
	checkToBase(t, "m3/s", []toBaseCase{
		{3600, "m3/h", 1},
		{60, "l/min", 1e-3},
		{1, "l/s", 1e-3},
	})
}

func TestConvertFraction(t *testing.T) {
	checkToBase(t, "ratio", []toBaseCase{{90, "%", 0.9}})
}

// TestConvertIncompatible: units of different dimensions do not share
// a base, and a unit the registry does not know is not found (the
// evaluator passes its values through unconverted).
func TestConvertIncompatible(t *testing.T) {
	kw, _ := Lookup("kW")
	k, _ := Lookup("K")
	if kw.Dim == k.Dim {
		t.Errorf("kW and K share the dimension %q", kw.Dim)
	}
	for _, name := range []string{"frobs", "xyzzy", ""} {
		if u, ok := Lookup(name); ok {
			t.Errorf("Lookup(%q) = %+v", name, u)
		}
	}
}

// TestToBaseAndBaseName: a value converts to its base unit, and each
// unit's base unit is registered in its dimension with factor 1 and
// offset 0.
func TestToBaseAndBaseName(t *testing.T) {
	if got := toBase(t, 2, "kW"); !approx(got, 2000) {
		t.Errorf("2 kW = %v W", got)
	}
	pairs := map[string]string{
		"mW": "W", "kWh": "J", "C": "K", "ms": "s", "GHz": "Hz",
		"MiB": "B", "GB/s": "B/s", "l/min": "m3/s", "%": "ratio",
		"instructions": "events", "mV": "V", "mA": "A",
	}
	for unit, base := range pairs {
		u, _ := Lookup(unit)
		b, _ := Lookup(base)
		if u.Dim == None || u.Dim != b.Dim || b.Factor != 1 || b.Offset != 0 {
			t.Errorf("%s (%+v) has not the base unit %s (%+v)", unit, u, base, b)
		}
	}
}

// TestDimensionOf: a registered unit carries its dimension; an unknown
// one has none.
func TestDimensionOf(t *testing.T) {
	if u, _ := Lookup("kW"); u.Dim != Power {
		t.Errorf("kW is %q, want %q", u.Dim, Power)
	}
	if u, _ := Lookup("K"); u.Dim != Temperature {
		t.Errorf("K is %q, want %q", u.Dim, Temperature)
	}
	if u, ok := Lookup("xyzzy"); ok || u.Dim != None {
		t.Errorf("Lookup(xyzzy) = %+v, %v", u, ok)
	}
}

func TestConvertIdentityAndCase(t *testing.T) {
	for name, want := range map[string]string{"w": "W", "KW": "kW", "W": "W"} {
		if u, ok := Lookup(name); !ok || u.Name != want {
			t.Errorf("Lookup(%q) = %+v, %v; want %s", name, u, ok, want)
		}
	}
	// mW and MW differ only in case: "mw" is ambiguous.
	if u, ok := Lookup("mw"); ok {
		t.Errorf("ambiguous Lookup(mw) = %+v", u)
	}
}
