package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// serverProc is one running otserve child.
type serverProc struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	stderr chan struct{} // closed once the stderr copier has seen EOF
	killed bool
}

// startServer execs otserve on an ephemeral port and returns once it
// reports its listen address. Its stderr is appended to logPath. The
// child is killed if this process dies first.
func startServer(ctx context.Context, bin, logPath string, args []string) (*serverProc, error) {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start otserve: %w", err)
	}
	p := &serverProc{cmd: cmd, stderr: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.stderr)
		defer log.Close()
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(log, line)
			if a, ok := strings.CutPrefix(line, "otserve: listening on "); ok {
				a, _, _ = strings.Cut(a, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, pipe)
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case <-p.stderr:
		p.kill()
		return nil, fmt.Errorf("otserve exited before listening (see %s)", logPath)
	case <-ctx.Done():
		p.kill()
		return nil, ctx.Err()
	}
}

// kill SIGKILLs the child and waits for it and its stderr copier.
// Killing twice is a no-op.
func (p *serverProc) kill() {
	if p == nil || p.killed {
		return
	}
	p.killed = true
	p.cmd.Process.Kill()
	<-p.stderr
	p.cmd.Wait()
}

// cpuTicks is the child's user+system CPU time in clock ticks
// (/proc/<pid>/stat fields 14 and 15).
func (p *serverProc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, starting at field 3.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat: %q", s)
	}
	return ut + st, nil
}

// clockTick is USER_HZ, the unit of /proc CPU times, which Linux fixes
// at 100 on every architecture it exports to user space.
const clockTick = 10 * time.Millisecond

// rssMB is the child's resident set (VmRSS) in MiB.
func (p *serverProc) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", p.cmd.Process.Pid)
}

// client is the load generator's HTTP side: one transport capped at
// conns connections, shared by every closed-loop client goroutine.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply into buf, returning
// the status. A POST carries body; a GET sends none.
func (c *client) do(ctx context.Context, method, path string, body []byte, hdr map[string]string, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// getJSON fetches path and decodes a 200 reply into v.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	var buf bytes.Buffer
	status, err := c.do(ctx, http.MethodGet, path, nil, nil, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, buf.Bytes())
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// healthy polls /healthz until it answers 200.
func (c *client) healthy(ctx context.Context) error {
	var buf bytes.Buffer
	for {
		status, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, &buf)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (c *client) metrics(ctx context.Context) (*server.Snapshot, error) {
	var s server.Snapshot
	if err := c.getJSON(ctx, "/metrics", &s); err != nil {
		return nil, err
	}
	return &s, nil
}
