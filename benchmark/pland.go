package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildPland compiles cmd/pland into dir, once per run and outside all
// timing. The import path resolves from anywhere inside the module.
func buildPland(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "pland")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/pland")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building pland: %v\n%s", err, out)
	}
	return bin, nil
}

// plandProc is one running pland child.
type plandProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	done    chan struct{} // closed once Wait returned
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startPland spawns the binary on a free port with its WAL in dataDir, its
// temp files under tmpDir (so leftover spill directories are ours to find)
// and its log in a file, then polls /readyz every millisecond until the boot
// recovery finished.
func startPland(ctx context.Context, bin, dataDir, tmpDir, logPath string, traceSample float64) (*plandProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-fsync", "interval",
		"-checkpoint-interval", "1h", // no compaction mid-run
		"-trace-sample", strconv.FormatFloat(traceSample, 'g', -1, 64),
		"-trace-buffer", "65536",
		"-max-sessions", "256",
	)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmpDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pland: %w", err)
	}
	p := &plandProc{cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, err := http.Get(p.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("pland exited during boot; log: %s", tail(logPath))
		case <-ctx.Done():
			p.kill()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("pland not ready after 30s; log: %s", tail(logPath))
		}
	}
}

// kill sends SIGKILL — the crash the WAL is there for — and waits for the
// child to be reaped. Safe to call twice and on nil.
func (p *plandProc) kill() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// exited reports whether the child has been reaped.
func (p *plandProc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// get fetches one of the child's debug surfaces; the caller closes the body.
func (p *plandProc) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return resp, nil
}

// scrape reads /metrics into a map from series (name plus label set, as
// exposed) to value.
func (p *plandProc) scrape(ctx context.Context) (map[string]float64, time.Duration, error) {
	start := time.Now()
	resp, err := p.get(ctx, "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			out[line[:cut]] = v
		}
	}
	return out, time.Since(start), sc.Err()
}

// heapStats reads the runtime.MemStats dump at the end of the child's heap
// profile: cumulative mallocs and allocated bytes, and the GC pauses that
// ended at or after since (the dump keeps the last 256 pauses, far more than
// one pass has).
func (p *plandProc) heapStats(ctx context.Context, since time.Time) (mallocs, allocBytes, pauseNS float64, err error) {
	resp, err := p.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	list := func(line, prefix string) []float64 {
		var out []float64
		for _, f := range strings.Fields(strings.Trim(strings.TrimPrefix(line, prefix), "[]")) {
			v, _ := strconv.ParseFloat(f, 64)
			out = append(out, v)
		}
		return out
	}
	var pauses, ends []float64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# Mallocs = "):
			mallocs, _ = strconv.ParseFloat(strings.TrimPrefix(line, "# Mallocs = "), 64)
		case strings.HasPrefix(line, "# TotalAlloc = "):
			allocBytes, _ = strconv.ParseFloat(strings.TrimPrefix(line, "# TotalAlloc = "), 64)
		case strings.HasPrefix(line, "# PauseNs = "):
			pauses = list(line, "# PauseNs = ")
		case strings.HasPrefix(line, "# PauseEnd = "):
			ends = list(line, "# PauseEnd = ")
		}
	}
	for i := range pauses {
		if i < len(ends) && ends[i] >= float64(since.UnixNano()) {
			pauseNS += pauses[i]
		}
	}
	return mallocs, allocBytes, pauseNS, sc.Err()
}

// copyDir copies the regular files of src into a fresh dst (the WAL
// directory is flat).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
