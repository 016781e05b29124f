package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// response is the subset of a headtalkd response line the benchmark
// reads.
type response struct {
	Type       string `json:"type"`
	Accepted   *bool  `json:"accepted"`
	ReasonSlug string `json:"reason_slug"`
	Status     string `json:"status"`
	Error      string `json:"error"`
	ErrorKind  string `json:"error_kind"`
	Health     *struct {
		Healthy bool `json:"healthy"`
	} `json:"health"`
	Envelope json.RawMessage `json:"envelope"`
}

// daemonProc is one headtalkd process served over its stdin/stdout.
// The benchmark keeps exactly one request outstanding per process, so
// a response line always answers the last request written.
type daemonProc struct {
	name string
	args []string
	cmd  *exec.Cmd
	in   *bufio.Writer
	inC  io.Closer
	out  *bufio.Reader
	logf *os.File
	done chan struct{}
}

var (
	procsMu sync.Mutex
	procs   = map[*daemonProc]bool{}
)

// startDaemon launches bin with args; stderr goes to logPath.
func startDaemon(name, bin string, args []string, logPath string) (*daemonProc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	stdin, err := cmd.StdinPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemonProc{
		name: name, args: args, cmd: cmd,
		in: bufio.NewWriterSize(stdin, 1<<16), inC: stdin,
		out:  bufio.NewReaderSize(stdout, 1<<16),
		logf: logf, done: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	procsMu.Lock()
	procs[d] = true
	procsMu.Unlock()
	return d, nil
}

// send writes one request line and flushes it.
func (d *daemonProc) send(line []byte) error {
	if _, err := d.in.Write(line); err != nil {
		return fmt.Errorf("%s: write: %w", d.name, err)
	}
	if err := d.in.WriteByte('\n'); err != nil {
		return fmt.Errorf("%s: write: %w", d.name, err)
	}
	if err := d.in.Flush(); err != nil {
		return fmt.Errorf("%s: write: %w", d.name, err)
	}
	return nil
}

// recv reads the next non-metrics response line.
func (d *daemonProc) recv() (response, error) {
	for {
		line, err := d.out.ReadBytes('\n')
		if err != nil {
			return response{}, fmt.Errorf("%s: read: %w (see %s)", d.name, err, d.logf.Name())
		}
		var r response
		if err := json.Unmarshal(line, &r); err != nil {
			return response{}, fmt.Errorf("%s: bad response line: %w", d.name, err)
		}
		if r.Type == "metrics" {
			continue
		}
		return r, nil
	}
}

// roundTrip sends one request and returns its response and round-trip
// time in nanoseconds.
func (d *daemonProc) roundTrip(line []byte) (response, int64, error) {
	start := time.Now()
	if err := d.send(line); err != nil {
		return response{}, 0, err
	}
	r, err := d.recv()
	return r, time.Since(start).Nanoseconds(), err
}

// cpuSeconds returns the process's user+system CPU time from
// /proc/<pid>/stat.
func (d *daemonProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("unparsable %s", s)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable cpu times in %q", s)
	}
	return float64(ut+st) / clockTicks, nil
}

// clockTicks is USER_HZ, 100 on every Linux configuration Go targets.
const clockTicks = 100

// stop closes stdin (the daemon drains and exits at EOF) and waits for
// the process, killing it after a grace period.
func (d *daemonProc) stop() {
	_ = d.inC.Close()
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.logf.Close()
	procsMu.Lock()
	delete(procs, d)
	procsMu.Unlock()
}

// killAll kills every daemon still running and waits for each.
func killAll() {
	procsMu.Lock()
	defer procsMu.Unlock()
	for d := range procs {
		_ = d.cmd.Process.Kill()
		<-d.done
		delete(procs, d)
	}
}

// freePort reserves a loopback port by binding and releasing it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// request encodes one NDJSON request line.
func request(fields map[string]any) []byte {
	b, err := json.Marshal(fields)
	if err != nil {
		panic(err) // only ever called with encodable literals
	}
	return b
}
