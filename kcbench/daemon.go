package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one kcoverd subprocess. Its cost is read from outside, the
// way an operator would: CPU from /proc/<pid>/stat, heap figures from
// the pprof heap endpoint after a forced GC, counters from /metrics.
type daemon struct {
	cmd     *exec.Cmd
	dataDir string
	ingest  string // TCP ingest address
	http    string // HTTP address
	exited  chan struct{}
	log     strings.Builder // stderr past the address line, for failure reports
}

// startDaemon execs kcoverd on ephemeral loopback ports with a fresh data
// directory and the timer checkpoints off, and returns once it has
// announced its addresses.
func startDaemon(bin, dataDir string, extra ...string) (*daemon, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	args := append([]string{
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-data", dataDir, "-checkpoint", "0",
	}, extra...)
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, dataDir: dataDir, exited: make(chan struct{})}
	lines := bufio.NewReader(stderr)
	line, err := lines.ReadString('\n')
	if err == nil {
		// "kcoverd: ingest on 127.0.0.1:P, http on 127.0.0.1:Q"
		if f := strings.Fields(strings.NewReplacer(",", " ").Replace(line)); len(f) == 7 {
			d.ingest, d.http = f[3], f[6]
		}
	}
	if d.ingest == "" || d.http == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("kcoverd did not announce its addresses: %q (%v)", line, err)
	}
	go func() {
		io.Copy(&d.log, lines)
		close(d.exited)
	}()
	return d, nil
}

// stop kills the daemon, waits for it, and removes its data directory.
// Nothing it would write on a graceful shutdown is measured.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	<-d.exited
	os.RemoveAll(d.dataDir)
}

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may hold spaces, so
// fields are counted from its closing parenthesis.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line")
	}
	// f[0] is field 3 (state), so field 14 is f[11].
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad stat times %q %q", f[11], f[12])
	}
	return (ut + st) / clockTicks, nil
}

var httpc = &http.Client{Timeout: 60 * time.Second}

// counters returns the daemon's /metrics counters.
func (d *daemon) counters() (map[string]int64, error) {
	resp, err := httpc.Get("http://" + d.http + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Counters, nil
}

// memStats returns the runtime.MemStats figures the pprof heap profile
// prints in its debug=1 form. The daemon collects first, so HeapAlloc is
// the live heap.
func (d *daemon) memStats() (map[string]float64, error) {
	resp, err := httpc.Get("http://" + d.http + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMemStats(resp.Body)
}

// parseMemStats reads the "# Name = value" lines of a debug=1 heap
// profile. List-valued lines (PauseNs, PauseEnd) are skipped.
func parseMemStats(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok || strings.ContainsAny(name, " []") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, ok := out["HeapAlloc"]; !ok {
		return nil, fmt.Errorf("heap profile has no HeapAlloc line")
	}
	return out, nil
}
