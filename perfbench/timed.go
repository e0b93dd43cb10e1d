package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lossyckpt/internal/server"
)

// setupRuns is how many times a timed run starts a daemon and warms it
// up; setup_s is the median, and the last daemon serves the measured
// phase.
const setupRuns = 5

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// daemon is a running lossyckptd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
	log  string
}

// daemonConfig mirrors the JSON lossyckptd -config reads.
type daemonConfig struct {
	Tenants []daemonTenant `json:"tenants"`
}

type daemonTenant struct {
	Name  string `json:"name"`
	Token string `json:"token"`
	Dir   string `json:"dir"`
	Keep  int    `json:"keep"`
	Dedup bool   `json:"dedup,omitempty"`
}

// startDaemon execs lossyckptd on an ephemeral loopback port with one
// store directory per tenant under dir, and returns once /readyz
// answers 200.
func startDaemon(bin, dir string, w *workload) (*daemon, error) {
	var cfg daemonConfig
	for _, t := range w.tenants {
		cfg.Tenants = append(cfg.Tenants, daemonTenant{
			Name: t.name, Token: tokenFor(t), Dir: filepath.Join(dir, t.name), Keep: t.keep, Dedup: t.dedup})
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, "daemon.json")
	addrPath := filepath.Join(dir, "addr")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	d := &daemon{done: make(chan error, 1), log: logf.Name()}
	d.cmd = exec.Command(bin, "-config", cfgPath, "-addr", "127.0.0.1:0", "-addr-file", addrPath)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lossyckptd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("lossyckptd exited during start-up (%v): %s", err, d.tail())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("lossyckptd not ready after 30s: %s", d.tail())
		}
		if d.base == "" {
			if addr, err := os.ReadFile(addrPath); err == nil {
				d.base = "http://" + strings.TrimSpace(string(addr))
			}
		}
		if d.base != "" {
			if resp, err := http.Get(d.base + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// tail returns the end of the daemon's log, for error messages.
func (d *daemon) tail() string {
	b, _ := os.ReadFile(d.log)
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return strings.TrimSpace(string(b))
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than 30 s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("lossyckptd did not drain within 30s")
	}
}

// cpuSeconds reads the daemon's user plus system CPU time.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ")".
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB reads the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// inspect returns a tenant's store occupancy and retained generations.
func (c *client) inspect() (server.InspectResult, error) {
	var res server.InspectResult
	resp, err := c.request(http.MethodGet, "/inspect", nil)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res, refusal("inspect", resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&res)
	return res, err
}

// timedResult is what a timed run measured.
type timedResult struct {
	totals
	wall      time.Duration
	setup     []float64 // seconds, one per set-up
	cpu       float64   // daemon CPU seconds in the measured phase
	peakRSSMB float64
}

// runTimed measures the real lossyckptd binary: it starts and warms up
// a daemon setupRuns times, then drives the last one with the
// workload's closed-loop clients for d.
func runTimed(w *workload, srcs []source, bin, workdir string, d time.Duration) (*timedResult, error) {
	res := &timedResult{}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var (
		dmn     *daemon
		clients []*client
	)
	defer func() {
		if dmn != nil {
			dmn.stop()
		}
	}()
	for i := 0; i < setupRuns; i++ {
		if dmn != nil {
			if err := dmn.stop(); err != nil {
				return nil, err
			}
			dmn = nil
		}
		dir := filepath.Join(workdir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if dmn, err = startDaemon(bin, dir, w); err != nil {
			return nil, err
		}
		clients = clients[:0]
		for k, t := range w.tenants {
			clients = append(clients, newClient(w, t, dmn.base, hc, srcs[k]))
		}
		if err := warmUp(clients, nil); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}

	cpu0, err := dmn.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.wall, err = measure(clients, d, nil)
	res.totals = pool(clients)
	if err != nil {
		return res, err
	}
	cpu1, err := dmn.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	if res.peakRSSMB, err = dmn.peakRSSMB(); err != nil {
		return nil, err
	}
	err = dmn.stop()
	dmn = nil
	return res, err
}
