package ipmi

import (
	"testing"
	"time"
)

func TestReadingAndSDRList(t *testing.T) {
	s := NewServer()
	s.AddSensor("CPU1 Temp", func(time.Time) float64 { return 61.5 })
	s.AddSensor("PSU1 Power", func(time.Time) float64 { return 480 })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v, err := c.GetReading("CPU1 Temp")
	if err != nil || v != 61.5 {
		t.Fatalf("GetReading = %v, %v", v, err)
	}
	if _, err := c.GetReading("No Such Sensor"); err == nil {
		t.Error("unknown sensor accepted")
	}
	// The connection survives multiple sequential requests.
	for i := 0; i < 5; i++ {
		if _, err := c.GetReading("PSU1 Power"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}
