package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark started from the binaries built
// for the commit under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startProc launches bin with args plus a loopback -addr, logging to
// logDir/name.log, and waits until its /healthz answers 200.
func startProc(ctx context.Context, bin, name, logDir string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	log, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = log, log
	// Take the server down with the benchmark if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, url: "http://" + addr, log: log}
	if err := p.waitHealthy(ctx, 10*time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) waitHealthy(ctx context.Context, limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s did not become healthy within %v (see %s)", p.name, limit, p.log.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the process and waits for it to exit.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // already exited is fine: Wait reaps it either way
	_ = p.cmd.Wait()
	p.log.Close()
}

// stats reads the process's /stats counters (non-numeric fields dropped).
func (p *proc) stats(ctx context.Context, client *http.Client) (map[string]float64, error) {
	status, body, err := send(ctx, client, p.url, call{method: http.MethodGet, path: "/stats"})
	if err != nil {
		return nil, fmt.Errorf("%s /stats: %w", p.name, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s /stats: status %d", p.name, status)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("%s /stats: %w", p.name, err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// fleet is the set of server processes of one serving workload: the
// matchserve replicas and, when routed, the matchrouter in front of them.
// front is the base URL the load goes to.
type fleet struct {
	servers []*proc
	router  *proc
	front   string
}

// startFleet starts replicas matchserve processes with their shipped
// default flags, plus a matchrouter over them when routed.
func startFleet(ctx context.Context, binDir, logDir string, replicas int, routed bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < replicas; i++ {
		p, err := startProc(ctx, filepath.Join(binDir, "matchserve"), fmt.Sprintf("matchserve-%d", i), logDir)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, p)
	}
	f.front = f.servers[0].url
	if routed {
		urls := make([]string, len(f.servers))
		for i, s := range f.servers {
			urls[i] = s.url
		}
		p, err := startProc(ctx, filepath.Join(binDir, "matchrouter"), "matchrouter", logDir,
			"-replicas", strings.Join(urls, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.router = p
		f.front = p.url
	}
	return f, nil
}

func (f *fleet) procs() []*proc {
	if f.router == nil {
		return f.servers
	}
	return append(append([]*proc(nil), f.servers...), f.router)
}

func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.stop()
	}
}

// cpu returns the summed CPU time of every server process.
func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range f.procs() {
		c, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// rss returns the summed peak resident set size of every server process.
func (f *fleet) rss() (float64, error) {
	total := 0.0
	for _, p := range f.procs() {
		r, err := peakRSS(p.pid())
		if err != nil {
			return 0, err
		}
		total += r
	}
	return total, nil
}

// counters sums the /stats counters of the replicas and reads the
// router's separately.
func (f *fleet) counters(ctx context.Context, client *http.Client) (servers, router map[string]float64, err error) {
	servers = map[string]float64{}
	for _, p := range f.servers {
		st, err := p.stats(ctx, client)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range st {
			servers[k] += v
		}
	}
	router = map[string]float64{}
	if f.router != nil {
		if router, err = f.router.stats(ctx, client); err != nil {
			return nil, nil, err
		}
	}
	return servers, router, nil
}

// postJSON sends one JSON request outside any timed phase and decodes a
// 200 reply into out.
func postJSON(ctx context.Context, client *http.Client, base, method, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	status, reply, err := send(ctx, client, base, call{method: method, path: path, body: body})
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(reply))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(reply, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

var errNoGraph = errors.New("registration returned no graph id")
