package bacnet

import (
	"testing"
	"time"
)

func TestReadPresentValue(t *testing.T) {
	s := NewServer(map[uint32]ObjectFunc{3000161: func(time.Time) float64 { return 21.5 }})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v, err := c.ReadProperty(3000161, PropPresentValue)
	if err != nil || v != 21.5 {
		t.Fatalf("ReadProperty = %v, %v", v, err)
	}
	if _, err := c.ReadProperty(999, PropPresentValue); err == nil {
		t.Error("unknown object accepted")
	}
	if _, err := c.ReadProperty(3000161, 12); err == nil {
		t.Error("unsupported property accepted")
	}
	// Sequential reads on one connection, as the plugin issues them.
	for i := 0; i < 5; i++ {
		if _, err := c.ReadProperty(3000161, PropPresentValue); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}
