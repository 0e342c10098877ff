// Package perfevents implements the Perfevents plugin (paper §3.1),
// DCDB's source of in-band application performance metrics: per-core
// hardware counters sampled at 1 Hz or higher. On the production
// systems the plugin uses perf_event_open; here the counters come from
// the deterministic CPU simulator in sim/cpu, preserving the plugin's
// structure — one group per core tying together that core's counters,
// published as per-interval deltas — without the syscall.
//
// Configuration:
//
//	plugin perfevents {
//	    mqttPrefix /node07/cpu
//	    interval   1000
//	    cores      48            ; simulated cores (0 = runtime cores)
//	    counters   instructions,cycles,cache-misses
//	}
package perfevents

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dcdb/internal/config"
	"dcdb/internal/plugins/pluginutil"
	"dcdb/internal/pusher"
	"dcdb/internal/sim/cpu"
)

// Plugin samples simulated per-core hardware counters.
type Plugin struct {
	pluginutil.Base
	machine *cpu.Machine
}

// New creates an unconfigured perfevents plugin. A nil machine makes
// Configure build one sized by the configuration.
func New(machine *cpu.Machine) *Plugin {
	p := &Plugin{machine: machine}
	p.PluginName = "perfevents"
	return p
}

// Factory adapts New to the plugin registry.
func Factory() pusher.Plugin { return New(nil) }

// Configure implements pusher.Plugin.
func (p *Plugin) Configure(cfg *config.Node) error {
	p.Reset()
	interval := cfg.Duration("interval", time.Second)
	prefix := cfg.String("mqttPrefix", "/cpu")
	cores := cfg.Int("cores", 0)
	if cores <= 0 {
		cores = runtime.NumCPU()
	}
	if p.machine == nil || p.machine.Cores() < cores {
		p.machine = cpu.NewMachine(cores, 0, nil)
	}
	counters, err := parseCounters(cfg.String("counters", ""))
	if err != nil {
		return err
	}
	for c := 0; c < cores; c++ {
		core := c
		sensors := make([]*pusher.Sensor, len(counters))
		for i, ctr := range counters {
			sensors[i] = &pusher.Sensor{
				Name:  ctr.String(),
				Topic: pluginutil.JoinTopic(prefix, fmt.Sprintf("core%02d/%s", core, ctr)),
				Unit:  "events",
				Delta: true,
			}
		}
		ctrs := counters
		g := &pusher.Group{
			Name:     fmt.Sprintf("core%02d", core),
			Interval: interval,
			Sensors:  sensors,
			Reader: pusher.GroupReaderFunc(func(now time.Time) ([]float64, error) {
				out := make([]float64, len(ctrs))
				for i, ctr := range ctrs {
					v, err := p.machine.ReadCounter(core, ctr, now)
					if err != nil {
						return nil, err
					}
					out[i] = float64(v)
				}
				return out, nil
			}),
		}
		if err := p.AddGroup(g); err != nil {
			return err
		}
	}
	return nil
}

func parseCounters(list string) ([]cpu.Counter, error) {
	if list == "" {
		return cpu.Counters(), nil
	}
	byName := make(map[string]cpu.Counter)
	for _, c := range cpu.Counters() {
		byName[c.String()] = c
	}
	var out []cpu.Counter
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("perfevents: unknown counter %q (known: %v)", name, cpu.Counters())
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("perfevents: empty counter list")
	}
	return out, nil
}
