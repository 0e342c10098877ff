package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. It has been 100 on every Linux architecture Go
// supports for two decades; Go has no sysconf to ask.
const clockTick = 100

// findRoot locates the dcdb module root: the directory holding
// cmd/dcdbnode, starting from dir and walking up.
func findRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if st, err := os.Stat(filepath.Join(d, "cmd", "dcdbnode")); err == nil && st.IsDir() {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no cmd/dcdbnode at or above %s: run from a checkout of the repository", abs)
		}
	}
}

// buildBinaries compiles the two programs under test into binDir. The
// Go build cache makes a rebuild of unchanged sources cheap.
func buildBinaries(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", binDir+string(filepath.Separator),
		"./cmd/dcdbnode", "./cmd/collectagent")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building dcdbnode and collectagent: %v\n%s", err, out)
	}
	return nil
}

// proc is one child process. Its stderr (where the programs log) goes
// to a file so a failure can show the tail, and it runs in its own
// process group so that one kill reaches anything it might spawn.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{} // closed once Wait returned
}

// procs tracks every live child of the harness, so that any exit path
// — normal teardown, a fatal error, a signal — can kill them all.
var procs struct {
	sync.Mutex
	live map[*proc]struct{}
}

func startProc(dir, name string, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	procs.Lock()
	if procs.live == nil {
		procs.live = make(map[*proc]struct{})
	}
	procs.live[p] = struct{}{}
	procs.Unlock()
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// kill terminates the child's process group and waits for the child.
func (p *proc) kill() {
	syscall.Kill(-p.pid(), syscall.SIGKILL)
	<-p.exited
	procs.Lock()
	delete(procs.live, p)
	procs.Unlock()
}

// killAllProcs is the last-resort cleanup for fatal exits and signals.
func killAllProcs() {
	procs.Lock()
	live := make([]*proc, 0, len(procs.live))
	for p := range procs.live {
		live = append(live, p)
	}
	procs.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// logTail returns the last lines of the child's log.
func (p *proc) logTail(lines int) string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return fmt.Sprintf("(no log: %v)", err)
	}
	all := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// waitLine polls the child's log for a line containing marker and
// returns what follows it on that line.
func (p *proc) waitLine(marker string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		b, _ := os.ReadFile(p.logPath)
		if i := bytes.Index(b, []byte(marker)); i >= 0 {
			rest := b[i+len(marker):]
			if j := bytes.IndexByte(rest, '\n'); j >= 0 {
				return strings.TrimSpace(string(rest[:j])), nil
			}
		}
		if !p.alive() {
			return "", fmt.Errorf("%s exited before printing %q:\n%s", p.name, marker, p.logTail(20))
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not print %q within %s:\n%s", p.name, marker, timeout, p.logTail(20))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuSeconds returns the user+system CPU time the process has consumed.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are
	// counted from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// procField reads one "Key: value" number from a /proc/<pid> file
// (status: VmHWM in kB; io: write_bytes).
func procField(pid int, file, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/%s: no %s", pid, file, key)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
