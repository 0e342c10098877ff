// Command dcdbpusher runs a DCDB Pusher: it loads plugins from a
// property-tree configuration file, samples their sensor groups on
// synchronized intervals, and pushes readings to a Collect Agent over
// MQTT (paper §4.1). The RESTful API allows starting/stopping plugins
// and reloading the configuration at runtime without interrupting the
// Pusher (paper §5.3).
//
// Configuration file layout:
//
//	global {
//	    mqttBroker 127.0.0.1:1883
//	    threads    2
//	    qos        1
//	    mode       continuous     ; or burst
//	    cacheWindow 120000        ; sensor cache, ms
//	}
//	plugin tester { group g0 { interval 1000 sensors 100 } }
//	plugin procfs { file meminfo { } }
//
// Usage:
//
//	dcdbpusher -config pusher.conf -rest :8090
//	dcdbpusher ... -metrics-addr 127.0.0.1:9091 [-pprof]
//
// The REST API serves the Prometheus exposition at /metrics; a
// standalone -metrics-addr listener serves the same (plus optional
// /debug/pprof/ with -pprof) when the REST API is disabled or firewalled.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"dcdb/internal/config"
	"dcdb/internal/metrics"
	"dcdb/internal/mqtt"
	"dcdb/internal/plugins/all"
	"dcdb/internal/pusher"
	"dcdb/internal/rest"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run carries out one command line (without the program name): it
// starts the Pusher, logs to w, and returns once SIGINT or SIGTERM
// arrives and everything it started is closed.
func run(args []string, w io.Writer) error {
	// Catch the stop signals before starting anything, so that a
	// signal at any point ends the run through its deferred closes.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	fs := flag.NewFlagSet("dcdbpusher", flag.ContinueOnError)
	fs.SetOutput(w)
	cfgPath := fs.String("config", "dcdbpusher.conf", "configuration file")
	restAddr := fs.String("rest", "", "RESTful API listen address (empty = disabled)")
	metricsAddr := fs.String("metrics-addr", "", "Prometheus /metrics listen address (empty = disabled; the -rest API also serves /metrics)")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof on the -metrics-addr listener")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(w, "", log.LstdFlags)

	cfg, err := config.ParseFile(*cfgPath)
	if err != nil {
		return err
	}
	opts := pusher.Options{
		Threads:       cfg.Int("global/threads", 2),
		CacheWindow:   cfg.Duration("global/cacheWindow", 0),
		QoS:           byte(cfg.Int("global/qos", 0)),
		FlushInterval: cfg.Duration("global/flushInterval", 0),
		Align:         cfg.Bool("global/align", true),
	}
	if cfg.String("global/mode", "continuous") == "burst" {
		opts.Mode = pusher.Burst
	}
	broker := cfg.String("global/mqttBroker", "127.0.0.1:1883")
	client, err := mqtt.Dial(broker, mqtt.DialOptions{ClientID: cfg.String("global/clientId", "")})
	if err != nil {
		return err
	}
	defer client.Close()
	host := pusher.NewHost(client, opts)
	defer host.Close()
	registry := all.Registry()

	startFromConfig := func(cfg *config.Node, only string) error {
		for _, pn := range cfg.ChildrenNamed("plugin") {
			if pn.Value == "" {
				return fmt.Errorf("plugin block without a name in %s", *cfgPath)
			}
			if only != "" && pn.Value != only {
				continue
			}
			p, err := registry.New(pn.Value)
			if err != nil {
				return err
			}
			if err := p.Configure(pn); err != nil {
				return err
			}
			if err := host.StartPlugin(p); err != nil {
				return err
			}
			logger.Printf("dcdbpusher: started plugin %q (%d groups)", p.Name(), len(p.Groups()))
		}
		return nil
	}
	if err := startFromConfig(cfg, ""); err != nil {
		return err
	}
	if len(host.Running()) == 0 {
		return fmt.Errorf("dcdbpusher: configuration %s starts no plugins", *cfgPath)
	}
	logger.Printf("dcdbpusher: pushing to %s (%s mode, QoS %d)", broker, opts.Mode, opts.QoS)

	if *restAddr != "" {
		api := rest.NewPusherAPI(host)
		api.ConfigText = func() string {
			c, err := config.ParseFile(*cfgPath)
			if err != nil {
				return "error: " + err.Error()
			}
			return c.Dump()
		}
		api.Reload = func() error {
			c, err := config.ParseFile(*cfgPath)
			if err != nil {
				return err
			}
			for _, name := range host.Running() {
				if err := host.StopPlugin(name); err != nil {
					return err
				}
			}
			return startFromConfig(c, "")
		}
		api.StartPlugin = func(name string) error {
			c, err := config.ParseFile(*cfgPath)
			if err != nil {
				return err
			}
			return startFromConfig(c, name)
		}
		if err := api.Listen(*restAddr); err != nil {
			return err
		}
		defer api.Close()
		logger.Printf("dcdbpusher: REST API on %s", api.Addr())
	}

	if *metricsAddr != "" {
		msrv, mln, err := metrics.Serve(*metricsAddr, *pprofFlag,
			metrics.Part{Reg: host.Metrics()},
			metrics.Part{Reg: metrics.Runtime()})
		if err != nil {
			return fmt.Errorf("dcdbpusher: metrics on %s: %w", *metricsAddr, err)
		}
		defer msrv.Close()
		logger.Printf("dcdbpusher: metrics on %s", mln.Addr())
	}

	<-stop
	st := host.Stats()
	logger.Printf("dcdbpusher: shutting down (%d readings, %d published, %d read errors, %d send errors)",
		st.Readings, st.Published, st.ReadErrors, st.SendErrors)
	return nil
}
