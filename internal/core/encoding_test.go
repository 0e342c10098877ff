package core

import (
	"math"
	"testing"
)

func TestReadingsWireRoundTrip(t *testing.T) {
	rs := []Reading{
		{Timestamp: 1, Value: 1.5},
		{Timestamp: -9e15, Value: math.Inf(1)},
		{Timestamp: 1 << 60, Value: -0.0},
	}
	got, err := DecodeReadings(EncodeReadings(rs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("decoded %d readings, want %d", len(got), len(rs))
	}
	for i := range rs {
		if got[i].Timestamp != rs[i].Timestamp ||
			math.Float64bits(got[i].Value) != math.Float64bits(rs[i].Value) {
			t.Fatalf("reading %d: %+v != %+v", i, got[i], rs[i])
		}
	}
	if got, err := DecodeReadings(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty payload: %v, %v", got, err)
	}
	if _, err := DecodeReadings(make([]byte, 17)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}
