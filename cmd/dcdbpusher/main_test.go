package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dcdb/internal/mqtt"
)

// syncBuffer is an io.Writer safe for the log of a running Pusher.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// broker starts an MQTT broker that counts the messages it receives.
func broker(t *testing.T) (*mqtt.Broker, *atomic.Int64) {
	t.Helper()
	var got atomic.Int64
	b := mqtt.NewBroker(func(string, []byte) { got.Add(1) })
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b, &got
}

// writeConfig writes a configuration file pushing to addr with the
// given plugin blocks.
func writeConfig(t *testing.T, addr, plugins string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pusher.conf")
	text := fmt.Sprintf("global { mqttBroker %s  threads 1  qos 1 }\n%s\n", addr, plugins)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRefusesBadCommandLines(t *testing.T) {
	b, _ := broker(t)
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-nonsense"}, "flag provided but not defined"},
		{"missing config", []string{"-config", filepath.Join(t.TempDir(), "absent.conf")}, "absent.conf"},
		{"no plugins", []string{"-config", writeConfig(t, b.Addr(), "")}, "starts no plugins"},
		{"unnamed plugin", []string{"-config", writeConfig(t, b.Addr(), "plugin { }")}, "plugin block without a name"},
		{"unknown plugin", []string{"-config", writeConfig(t, b.Addr(), "plugin nosuchplugin { }")}, "nosuchplugin"},
	} {
		var out syncBuffer
		if err := run(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestRunPushesUntilSignalled: the Pusher starts its plugins, publishes
// to the broker and, on SIGTERM, closes down and returns without error.
func TestRunPushesUntilSignalled(t *testing.T) {
	b, got := broker(t)
	cfg := writeConfig(t, b.Addr(), "plugin tester { group g0 { interval 20 sensors 5 } }")
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run([]string{"-config", cfg}, &out) }()

	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < 10 {
		select {
		case err := <-done:
			t.Fatalf("run returned before any signal: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("the broker received %d messages in 10s\n%s", got.Load(), out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The broker has messages, so run has long registered for SIGTERM:
	// the signal reaches it, not the test process's default handler.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	log := out.String()
	for _, want := range []string{`started plugin "tester"`, "pushing to " + b.Addr(), "shutting down ("} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %q:\n%s", want, log)
		}
	}
}
