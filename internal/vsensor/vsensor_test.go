package vsensor

import (
	"fmt"
	"io"
	"math"
	"testing"
	"testing/quick"

	"dcdb/internal/core"
)

// evalAll opens the expression's stream over src and drains it.
func evalAll(e *Expr, src StreamSource, from, to int64) ([]core.Reading, error) {
	st, err := EvaluateStream(e, src, from, to)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out []core.Reading
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
}

// interpolateAt is a fresh operand column's value at ts: the
// evaluator's interpolation and clamping over one series.
func interpolateAt(rs []core.Reading, ts int64) float64 {
	c := newColumn(&chunkedStream{rs: rs, chunk: 1}, "")
	if err := c.prime(); err != nil {
		panic(err)
	}
	v, err := c.at(ts)
	if err != nil {
		panic(err)
	}
	return v
}

func series(vals ...float64) []core.Reading {
	rs := make([]core.Reading, len(vals))
	for i, v := range vals {
		rs[i] = core.Reading{Timestamp: int64(i) * 1000, Value: v}
	}
	return rs
}

func TestParseAndEvalConstant(t *testing.T) {
	cases := map[string]float64{
		"1+2":            3,
		"2*3+4":          10,
		"2+3*4":          14,
		"(2+3)*4":        20,
		"10/4":           2.5,
		"-5+8":           3,
		"--4":            4,
		"2*-3":           -6,
		"1e3+0.5":        1000.5,
		"abs(-7)":        7,
		"min(3,1,2)":     1,
		"max(3,1,2)":     3,
		"min(1+1, 2*3)":  2,
		"abs(min(-2,1))": 2,
	}
	for src, want := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		rs, err := evalAll(e, &dualSource{}, 0, 0)
		if err != nil || len(rs) != 1 || rs[0].Value != want {
			t.Errorf("evaluating %q = %v, %v; want %v", src, rs, err, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1+", "(1", "<", "<>", "foo", "f(1)", "abs(1,2)", "min(1)",
		"1 2", "1..2", "@", "<a> <b>",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestRefs(t *testing.T) {
	e, err := Parse(`<a/b> + <c> * <a/b> - <d/*>`)
	if err != nil {
		t.Fatal(err)
	}
	refs := e.Refs()
	want := []string{"a/b", "c", "d/*"}
	if len(refs) != len(want) {
		t.Fatalf("Refs = %v", refs)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("Refs = %v, want %v", refs, want)
		}
	}
	if e.String() != `<a/b> + <c> * <a/b> - <d/*>` {
		t.Errorf("String = %q", e.String())
	}
}

func TestEvaluateAlignedSeries(t *testing.T) {
	src := &dualSource{data: map[string][]core.Reading{
		"/p1": series(100, 200, 300),
		"/p2": series(10, 20, 30),
	}}
	e, _ := Parse("<" + "/p1" + "> + </p2>")
	rs, err := evalAll(e, src, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].Value != 110 || rs[2].Value != 330 {
		t.Fatalf("sum series = %v", rs)
	}
}

func TestEvaluateInterpolation(t *testing.T) {
	// /a sampled at 0,1000,2000; /b at 500,1500 -> union 5 stamps.
	src := &dualSource{data: map[string][]core.Reading{
		"/a": {{Timestamp: 0, Value: 0}, {Timestamp: 1000, Value: 10}, {Timestamp: 2000, Value: 20}},
		"/b": {{Timestamp: 500, Value: 100}, {Timestamp: 1500, Value: 200}},
	}}
	e, _ := Parse("</a> + </b>")
	rs, err := evalAll(e, src, 0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("union size = %d", len(rs))
	}
	// At ts=500: a interpolates to 5, b is 100.
	if rs[1].Timestamp != 500 || rs[1].Value != 105 {
		t.Fatalf("ts=500: %+v", rs[1])
	}
	// At ts=0: b clamps to 100 -> 100.
	if rs[0].Value != 100 {
		t.Fatalf("ts=0 clamp: %+v", rs[0])
	}
	// At ts=2000: b clamps to 200 -> 220.
	if rs[4].Value != 220 {
		t.Fatalf("ts=2000 clamp: %+v", rs[4])
	}
}

func TestEvaluateUnitConversion(t *testing.T) {
	// Power in mW plus power in kW: both to base W.
	src := &dualSource{
		data: map[string][]core.Reading{
			"/mw": series(5000), // 5 W
			"/kw": series(2),    // 2000 W
		},
		units: map[string]string{"/mw": "mW", "/kw": "kW"},
	}
	e, _ := Parse("</mw> + </kw>")
	rs, err := evalAll(e, src, 0, 10)
	if err != nil || len(rs) != 1 || math.Abs(rs[0].Value-2005) > 1e-9 {
		t.Fatalf("unit conversion: %v, %v", rs, err)
	}
}

func TestEvaluateWildcardSum(t *testing.T) {
	src := &dualSource{data: map[string][]core.Reading{
		"/rack/n1/power": series(100, 110),
		"/rack/n2/power": series(200, 210),
		"/rack/n3/power": series(300, 310),
		"/other/x":       series(999),
	}}
	e, _ := Parse("</rack/*> / 1000")
	rs, err := evalAll(e, src, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Value != 0.6 || rs[1].Value != 0.63 {
		t.Fatalf("wildcard sum = %v", rs)
	}
}

func TestEvaluateErrors(t *testing.T) {
	src := &dualSource{data: map[string][]core.Reading{"/a": series(1)}}
	e, _ := Parse("</missing>")
	if _, err := evalAll(e, src, 0, 10); err == nil {
		t.Error("missing sensor accepted")
	}
	e2, _ := Parse("</a>")
	if _, err := evalAll(e2, src, 5000, 6000); err == nil {
		t.Error("empty period accepted")
	}
	e3, _ := Parse("</nothing/*>")
	if _, err := evalAll(e3, src, 0, 10); err == nil {
		t.Error("empty wildcard accepted")
	}
}

func TestEvaluateDivisionByZero(t *testing.T) {
	src := &dualSource{data: map[string][]core.Reading{
		"/a": series(1),
		"/z": series(0),
	}}
	e, _ := Parse("</a> / </z>")
	rs, err := evalAll(e, src, 0, 10)
	if err != nil || len(rs) != 1 || !math.IsNaN(rs[0].Value) {
		t.Fatalf("div by zero: %v, %v", rs, err)
	}
}

func TestInterpolate(t *testing.T) {
	rs := []core.Reading{{Timestamp: 0, Value: 0}, {Timestamp: 100, Value: 10}}
	cases := map[int64]float64{-50: 0, 0: 0, 50: 5, 100: 10, 200: 10, 25: 2.5}
	for ts, want := range cases {
		if got := interpolateAt(rs, ts); got != want {
			t.Errorf("value at %d = %v, want %v", ts, got, want)
		}
	}
	one := []core.Reading{{Timestamp: 10, Value: 7}}
	if interpolateAt(one, 0) != 7 || interpolateAt(one, 20) != 7 || interpolateAt(one, 10) != 7 {
		t.Error("single-point interpolation")
	}
}

// Property: an operand column's value at a sample point is the sample
// value, and between points lies within [min, max] of the neighbours.
func TestInterpolateBoundsQuick(t *testing.T) {
	f := func(vals []float64, off uint16) bool {
		if len(vals) < 2 {
			return true
		}
		for _, v := range vals {
			// Bound magnitudes so b-a cannot overflow to infinity.
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true
			}
		}
		rs := series(vals...)
		ts := int64(off) % rs[len(rs)-1].Timestamp
		got := interpolateAt(rs, ts)
		i := ts / 1000
		lo := math.Min(vals[i], vals[min(int(i)+1, len(vals)-1)])
		hi := math.Max(vals[i], vals[min(int(i)+1, len(vals)-1)])
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: parser round-trips constants.
func TestParseNumberQuick(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		src := fmt.Sprintf("%g", math.Abs(v))
		e, err := Parse(src)
		if err != nil {
			return false
		}
		rs, err := evalAll(e, &dualSource{}, 0, 0)
		return err == nil && rs[0].Value == math.Abs(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
