//go:build unix

package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fleet owns every child process of one benchmark run, so that one
// call kills them all on exit, panic or SIGINT, and a leak check can
// prove none survived.
type fleet struct {
	mu    sync.Mutex
	procs []*proc
}

type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	base    string // http://127.0.0.1:port
	started time.Time
	exited  chan struct{} // closed once Wait returned
}

// start launches bin with args, its output appended to logPath, in
// its own process group.
func (f *fleet) start(name, logPath, bin string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	p := &proc{name: name, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = cmd.Wait() // a SIGKILLed server always "fails"; exit is what matters
		close(p.exited)
	}()
	f.mu.Lock()
	f.procs = append(f.procs, p)
	f.mu.Unlock()
	return p, nil
}

// kill SIGKILLs the process group and waits for the process to be
// reaped.
func (p *proc) kill() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // ESRCH: it exited in between
	<-p.exited
}

func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// killAll stops every process the fleet ever started and returns the
// names of any that could not be confirmed dead.
func (f *fleet) killAll() (leaked []string) {
	f.mu.Lock()
	procs := append([]*proc(nil), f.procs...)
	f.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, p := range procs {
		// After Wait the pid is reaped; anything still answering
		// signal 0 in the group is a grandchild that escaped.
		if err := syscall.Kill(-p.cmd.Process.Pid, 0); err == nil {
			leaked = append(leaked, p.name)
		}
	}
	return leaked
}

// peakRSSMB reads VmHWM of a live process.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// logTail returns the last n lines of the process's log.
func (p *proc) logTail(n int) string {
	data, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// server to bind.  ssserve logs the address it was given, not the one
// it bound, so ":0" cannot be used directly.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitReady polls /readyz on every process until all answer 200, and
// fails fast when a process dies first.
func waitReady(hc *http.Client, timeout time.Duration, procs ...*proc) error {
	deadline := time.Now().Add(timeout)
	for _, p := range procs {
		for {
			if !p.alive() {
				return fmt.Errorf("%s exited before becoming ready; log tail:\n%s", p.name, p.logTail(20))
			}
			resp, err := hc.Get(p.base + "/readyz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %v; log tail:\n%s", p.name, timeout, p.logTail(20))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// buildBinaries compiles ssserve and ssgen from the working tree.
func buildBinaries(ctx context.Context, root, outDir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", outDir+string(filepath.Separator), "./cmd/ssserve", "./cmd/ssgen")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build ./cmd/ssserve ./cmd/ssgen: %w\n%s", err, out)
	}
	return nil
}

// runTool runs a short-lived helper (ssgen) to completion.
func runTool(bin string, args ...string) error {
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return nil
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if strings.HasPrefix(string(data), "module scaleshift\n") {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the scaleshift module (no go.mod found)")
		}
		dir = parent
	}
}

// dirBytes sums the sizes of the regular files under dir whose names
// pass keep.
func dirBytes(dir string, keep func(name string) bool) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() && keep(info.Name()) {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
