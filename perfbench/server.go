package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxConns caps the load generator's connections to the server: nproc on
// the 2-core machines the benchmark is sized for, so the generator never
// outnumbers the cores it shares with the server.
const maxConns = 2

// serverProc is one running aiio-server child process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	logf *os.File
	done chan struct{}
	err  error
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

// startServer launches the binary with args plus -addr, and waits until
// /readyz answers 200.
func startServer(bin, logPath string, args []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, logf: lf, done: make(chan struct{})}
	go func() { p.err = cmd.Wait(); close(p.done) }()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			lf.Close()
			return nil, fmt.Errorf("aiio-server exited before ready: %v (log %s)", p.err, logPath)
		default:
		}
		resp, err := hc.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.stop()
	return nil, fmt.Errorf("aiio-server not ready within 60s (log %s)", logPath)
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// outlives the grace period. It returns once the process has exited.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.logf.Close()
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuTime reads the process's utime+stime.
func (p *serverProc) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(rest[11], 10, 64)
	st, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// newClient returns the load generator's HTTP client: keep-alive, at most
// maxConns connections, no retries (a refused or failed request is a failed
// op, not something to paper over).
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func post(ctx context.Context, hc *http.Client, url string, body []byte) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	return do(hc, req)
}

func get(ctx context.Context, hc *http.Client, url string) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(hc, req)
}

func do(hc *http.Client, req *http.Request) (*reply, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// servingGeneration reads the generation /readyz reports as serving.
func servingGeneration(ctx context.Context, hc *http.Client, base string) (uint64, error) {
	r, err := get(ctx, hc, base+"/readyz")
	if err != nil {
		return 0, err
	}
	var body struct {
		Generation struct {
			Generation uint64 `json:"generation"`
		} `json:"generation"`
	}
	if err := json.Unmarshal(r.body, &body); err != nil {
		return 0, fmt.Errorf("decode /readyz: %w", err)
	}
	return body.Generation.Generation, nil
}
