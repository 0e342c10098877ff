// Package plugins_test exercises every built-in plugin end to end:
// configuration parsing, group/sensor construction, entity connections
// to the protocol simulators, and actual group reads.
package plugins_test

import (
	"strings"
	"testing"
	"time"

	"dcdb/internal/config"
	"dcdb/internal/plugins/all"
	"dcdb/internal/plugins/bacnetplug"
	"dcdb/internal/plugins/gpfs"
	"dcdb/internal/plugins/ipmiplug"
	"dcdb/internal/plugins/opa"
	"dcdb/internal/plugins/perfevents"
	"dcdb/internal/plugins/procfs"
	"dcdb/internal/plugins/restplug"
	"dcdb/internal/plugins/snmpplug"
	"dcdb/internal/plugins/sysfs"
	"dcdb/internal/plugins/tester"
	"dcdb/internal/pusher"
	simbacnet "dcdb/internal/sim/bacnet"
	simipmi "dcdb/internal/sim/ipmi"
	"dcdb/internal/sim/restsrv"
	simsnmp "dcdb/internal/sim/snmp"
)

func parse(t *testing.T, text string) *config.Node {
	t.Helper()
	n, err := config.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// readAll connects entities and reads every group once.
func readAll(t *testing.T, p pusher.Plugin) map[string]float64 {
	t.Helper()
	for _, e := range p.Entities() {
		if err := e.Connect(); err != nil {
			t.Fatalf("entity %q: %v", e.Name(), err)
		}
		defer e.Close()
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	out := make(map[string]float64)
	for _, g := range p.Groups() {
		if err := g.Validate(); err != nil {
			t.Fatalf("group %q: %v", g.Name, err)
		}
		vals, err := g.Reader.ReadGroup(time.Now())
		if err != nil {
			t.Fatalf("group %q read: %v", g.Name, err)
		}
		if len(vals) != len(g.Sensors) {
			t.Fatalf("group %q returned %d values for %d sensors", g.Name, len(vals), len(g.Sensors))
		}
		for i, s := range g.Sensors {
			out[s.Topic] = vals[i]
		}
	}
	return out
}

func TestRegistryHasAllTenPlugins(t *testing.T) {
	r := all.Registry()
	names := r.Names()
	want := []string{"bacnet", "gpfs", "ipmi", "opa", "perfevents", "procfs", "rest", "snmp", "sysfs", "tester"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry = %v, want %v", names, want)
		}
	}
	for _, n := range want {
		p, err := r.New(n)
		if err != nil || p.Name() != n {
			t.Errorf("New(%q) = %v, %v", n, p, err)
		}
	}
}

func TestTesterPlugin(t *testing.T) {
	p := tester.New()
	cfg := parse(t, `
mqttPrefix /test
interval 100
group g0 { sensors 3 }
groups 2
sensorsEach 4
`)
	if err := p.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups()) != 3 {
		t.Fatalf("groups = %d", len(p.Groups()))
	}
	total := 0
	for _, g := range p.Groups() {
		total += len(g.Sensors)
	}
	if total != 3+2*4 {
		t.Fatalf("sensors = %d", total)
	}
	vals := readAll(t, p)
	if len(vals) != total {
		t.Fatalf("read %d values", len(vals))
	}
	// Values are monotonically increasing across reads.
	g := p.Groups()[0]
	v1, _ := g.Reader.ReadGroup(time.Now())
	v2, _ := g.Reader.ReadGroup(time.Now())
	if v2[0] <= v1[0] {
		t.Error("tester values not increasing")
	}
	// Error cases.
	if err := tester.New().Configure(parse(t, "interval 100")); err == nil {
		t.Error("empty tester config accepted")
	}
	if err := tester.New().Configure(parse(t, "group g { sensors 0 }")); err == nil {
		t.Error("zero-sensor group accepted")
	}
}

func TestProcfsPlugin(t *testing.T) {
	p := procfs.New()
	cfg := parse(t, `
mqttPrefix /n1/procfs
interval 1000
file meminfo  { }
file vmstat   { }
file procstat { }
`)
	if err := p.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups()) != 3 {
		t.Fatalf("groups = %d", len(p.Groups()))
	}
	vals := readAll(t, p)
	// /proc exists on this machine (Linux), so expect plenty of
	// metrics, MemTotal among them.
	found := false
	for topic := range vals {
		if strings.Contains(topic, "MemTotal") {
			found = true
		}
		if !strings.HasPrefix(topic, "/n1/procfs/") {
			t.Fatalf("topic %q outside prefix", topic)
		}
	}
	if !found {
		t.Error("MemTotal not discovered")
	}
	if err := procfs.New().Configure(parse(t, "interval 5")); err == nil {
		t.Error("fileless procfs config accepted")
	}
}

func TestProcfsSyntheticFallback(t *testing.T) {
	p := procfs.New()
	cfg := parse(t, `
file meminfo { path /nonexistent/meminfo }
file vmstat  { path /nonexistent/vmstat }
`)
	if err := p.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	vals := readAll(t, p)
	if len(vals) == 0 {
		t.Fatal("synthetic fallback yielded no metrics")
	}
	var memTotal float64
	for topic, v := range vals {
		if strings.HasSuffix(topic, "/MemTotal") {
			memTotal = v
		}
	}
	if memTotal != 98304000 {
		t.Errorf("synthetic MemTotal = %v", memTotal)
	}
}

func TestSysfsPlugin(t *testing.T) {
	p := sysfs.New()
	cfg := parse(t, `
mqttPrefix /n1/sysfs
group temps {
    interval 500
    sensor cpu_temp { path /nonexistent/hwmon/temp1_input unit mC }
    sensor energy   { path /nonexistent/rapl/energy_uj unit uJ delta true }
}
`)
	if err := p.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	vals := readAll(t, p)
	temp := vals["/n1/sysfs/temps/cpu_temp"]
	if temp < 30000 || temp > 60000 {
		t.Errorf("synthetic temperature = %v mC", temp)
	}
	// Error cases.
	if err := sysfs.New().Configure(parse(t, "interval 5")); err == nil {
		t.Error("groupless sysfs config accepted")
	}
	if err := sysfs.New().Configure(parse(t, "group g { sensor s { } }")); err == nil {
		t.Error("pathless sensor accepted")
	}
	if err := sysfs.New().Configure(parse(t, "group g { }")); err == nil {
		t.Error("sensorless group accepted")
	}
}

func TestPerfeventsPlugin(t *testing.T) {
	p := perfevents.New(nil)
	cfg := parse(t, `
mqttPrefix /n1/cpu
interval 100
cores 4
counters instructions,cycles
`)
	if err := p.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups()) != 4 {
		t.Fatalf("groups = %d", len(p.Groups()))
	}
	for _, g := range p.Groups() {
		if len(g.Sensors) != 2 {
			t.Fatalf("group %q has %d sensors", g.Name, len(g.Sensors))
		}
		for _, s := range g.Sensors {
			if !s.Delta {
				t.Errorf("counter %q not delta", s.Topic)
			}
		}
	}
	// Counters are monotonic.
	g := p.Groups()[0]
	v1, err := g.Reader.ReadGroup(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	v2, err := g.Reader.ReadGroup(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if v2[0] <= v1[0] {
		t.Errorf("instructions not monotonic: %v -> %v", v1[0], v2[0])
	}
	if err := perfevents.New(nil).Configure(parse(t, "counters bogus")); err == nil {
		t.Error("unknown counter accepted")
	}
}

func TestIPMIPlugin(t *testing.T) {
	srv := simipmi.NewServer()
	srv.AddSensor("PSU1 Power", func(time.Time) float64 { return 420 })
	srv.AddSensor("Inlet Temp", func(time.Time) float64 { return 24.5 })
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := ipmiplug.New()
	cfg := parse(t, `
mqttPrefix /rack01
interval 1000
host node07 {
    addr `+srv.Addr()+`
    group psu {
        sensor "PSU1 Power" { unit W }
        sensor "Inlet Temp" { unit C }
    }
}
`)
	if err := p.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	vals := readAll(t, p)
	if vals["/rack01/node07/psu/PSU1_Power"] != 420 {
		t.Errorf("power = %v (all: %v)", vals["/rack01/node07/psu/PSU1_Power"], vals)
	}
	if vals["/rack01/node07/psu/Inlet_Temp"] != 24.5 {
		t.Errorf("temp = %v", vals["/rack01/node07/psu/Inlet_Temp"])
	}
	// Config errors.
	if err := ipmiplug.New().Configure(parse(t, "interval 5")); err == nil {
		t.Error("hostless config accepted")
	}
	if err := ipmiplug.New().Configure(parse(t, "host h { }")); err == nil {
		t.Error("addrless host accepted")
	}
}

func TestSNMPPlugin(t *testing.T) {
	agent := simsnmp.NewAgent()
	agent.Register("1.3.6.1.4.1.9999.1.1", func(time.Time) float64 { return 31.5 })
	if err := agent.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	p := snmpplug.New()
	cfg := parse(t, `
mqttPrefix /facility
agent chiller {
    addr `+agent.Addr()+`
    group loop {
        sensor inlet_temp { oid 1.3.6.1.4.1.9999.1.1 unit C }
    }
}
`)
	if err := p.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	vals := readAll(t, p)
	if vals["/facility/chiller/loop/inlet_temp"] != 31.5 {
		t.Errorf("inlet = %v", vals["/facility/chiller/loop/inlet_temp"])
	}
	if err := snmpplug.New().Configure(parse(t, "agent a { addr 1.2.3.4:1 group g { sensor s { } } }")); err == nil {
		t.Error("OID-less sensor accepted")
	}
}

func TestBACnetPlugin(t *testing.T) {
	srv := simbacnet.NewServer(map[uint32]simbacnet.ObjectFunc{1001: func(time.Time) float64 { return 18.0 }})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := bacnetplug.New()
	cfg := parse(t, `
mqttPrefix /building
device ahu1 {
    addr `+srv.Addr()+`
    group air {
        sensor supply_temp { object 1001 unit C }
    }
}
`)
	if err := p.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	vals := readAll(t, p)
	if vals["/building/ahu1/air/supply_temp"] != 18.0 {
		t.Errorf("supply temp = %v", vals["/building/ahu1/air/supply_temp"])
	}
	if err := bacnetplug.New().Configure(parse(t, "device d { addr x group g { sensor s { } } }")); err == nil {
		t.Error("objectless sensor accepted")
	}
}

func TestRESTPlugin(t *testing.T) {
	dev := restsrv.NewDevice()
	dev.AddSensor("power_kw", func(time.Time) float64 { return 27.5 })
	dev.AddSensor("heat_kw", func(time.Time) float64 { return 24.8 })
	if err := dev.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	p := restplug.New()
	cfg := parse(t, `
mqttPrefix /facility/rack01
endpoint rack {
    url http://`+dev.Addr()+`/sensors
    group circuit {
        sensor power { key power_kw unit kW }
        sensor heat  { key heat_kw  unit kW }
    }
}
`)
	if err := p.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	vals := readAll(t, p)
	if vals["/facility/rack01/rack/circuit/power"] != 27.5 {
		t.Errorf("power = %v", vals["/facility/rack01/rack/circuit/power"])
	}
	// Missing key surfaces as read error.
	p2 := restplug.New()
	cfg2 := parse(t, `
endpoint rack {
    url http://`+dev.Addr()+`/sensors
    group g { sensor nope { key missing } }
}
`)
	if err := p2.Configure(cfg2); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Groups()[0].Reader.ReadGroup(time.Now()); err == nil {
		t.Error("missing key read succeeded")
	}
}

func TestOPAPlugin(t *testing.T) {
	p := opa.New()
	if err := p.Configure(parse(t, "mqttPrefix /n1/opa\ninterval 100\nports 2")); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups()) != 2 {
		t.Fatalf("groups = %d", len(p.Groups()))
	}
	g := p.Groups()[0]
	v1, _ := g.Reader.ReadGroup(time.Now())
	time.Sleep(10 * time.Millisecond)
	v2, _ := g.Reader.ReadGroup(time.Now())
	if v2[0] <= v1[0] {
		t.Error("xmit_data not monotonic")
	}
	if err := opa.New().Configure(parse(t, "ports 0")); err == nil {
		t.Error("zero ports accepted")
	}
}

func TestGPFSPlugin(t *testing.T) {
	p := gpfs.New()
	if err := p.Configure(parse(t, "mqttPrefix /n1/gpfs\nfilesystem work { }\nfilesystem scratch { readBps 8e8 }")); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups()) != 2 {
		t.Fatalf("groups = %d", len(p.Groups()))
	}
	g := p.Groups()[0]
	if len(g.Sensors) != 6 {
		t.Fatalf("gpfs sensors = %d", len(g.Sensors))
	}
	v1, _ := g.Reader.ReadGroup(time.Now())
	time.Sleep(10 * time.Millisecond)
	v2, _ := g.Reader.ReadGroup(time.Now())
	if v2[0] <= v1[0] {
		t.Error("bytes_read not monotonic")
	}
	if err := gpfs.New().Configure(parse(t, "interval 1")); err == nil {
		t.Error("filesystem-less config accepted")
	}
}

func TestPluginsRunUnderHost(t *testing.T) {
	// The tester plugin under a real Host: an integration smoke test.
	p := tester.New()
	if err := p.Configure(parse(t, "group g { interval 10 sensors 5 }")); err != nil {
		t.Fatal(err)
	}
	h := pusher.NewHost(nil, pusher.Options{Threads: 2})
	defer h.Close()
	if err := h.StartPlugin(p); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().Readings < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if h.Stats().Readings < 10 {
		t.Fatalf("readings = %d", h.Stats().Readings)
	}
}
