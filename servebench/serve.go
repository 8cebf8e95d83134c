package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one uncertaind process started by the benchmark.
type server struct {
	cmd    *exec.Cmd
	base   string // host:port
	stderr bytes.Buffer
	done   chan struct{} // closed once the stdout reader has drained
}

// startServer starts the daemon on a free loopback port and waits until it
// prints its listen address.
func startServer(bin string, flags []string) (*server, error) {
	s := &server{done: make(chan struct{})}
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = &s.stderr
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The daemon dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if line := sc.Text(); !sent && strings.HasPrefix(line, "uncertaind listening on ") {
				addr <- strings.TrimPrefix(line, "uncertaind listening on http://")
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("uncertaind exited before listening: %s", s.stderr.String())
		}
		s.base = a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("uncertaind did not start within 30s")
	}
	return s, nil
}

// stop ends the daemon with SIGTERM (its graceful shutdown) and waits for
// it, killing it if it has not exited after ten seconds.
func (s *server) stop() {
	if s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(10*time.Second, func() { _ = s.cmd.Process.Kill() })
	<-s.done
	_ = s.cmd.Wait()
	timer.Stop()
}

// cpuTime reads the process's user+sys CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	// USER_HZ is 100 on every Linux build Go supports without cgo.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// runTime is the time the process's threads have run on a CPU, summed
// from /proc/<pid>/task/*/schedstat. Unlike utime+stime it has nanosecond
// resolution, so it can be read around one request.
func runTime(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing schedstat: %v", err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// settle waits, for at most two seconds, until the daemon has used no CPU
// for 30ms.
func settle(s *server) {
	pid := s.cmd.Process.Pid
	deadline := time.Now().Add(2 * time.Second)
	last, err := cpuTime(pid)
	for err == nil && time.Now().Before(deadline) {
		time.Sleep(30 * time.Millisecond)
		var now time.Duration
		if now, err = cpuTime(pid); now == last {
			return
		}
		last = now
	}
}

// statusKB reads one "Key: N kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseFloat(f[1], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// client is the benchmark's single request connection. It counts the TCP
// connections it dials, so a client that fails to reuse its keep-alive
// connection shows.
type client struct {
	base  string
	hc    *http.Client
	trace *httptrace.ClientTrace
	dials int
	buf   bytes.Buffer
	// lastStart is when the last request began to be sent.
	lastStart time.Time
	pid       int // the daemon's
}

func newClient(srv *server) *client {
	c := &client{base: "http://" + srv.base, pid: srv.cmd.Process.Pid}
	c.hc = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		DisableCompression:  true,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     5 * time.Minute,
	}}
	c.trace = &httptrace.ClientTrace{ConnectStart: func(string, string) { c.dials++ }}
	return c
}

// do sends one request and reads the whole response. The returned duration
// runs from just before sending to the last byte read; the body aliases the
// client's buffer and is valid until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), c.trace), method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	start := time.Now()
	c.lastStart = start
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, c.buf.Bytes(), d, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// cpu reads the daemon's CPU time; a failed read reads as zero, which
// shows as a negative or implausible sample rather than stopping the run.
func (c *client) cpu() time.Duration {
	d, _ := runTime(c.pid)
	return d
}

// queryBody is the JSON body of POST /v1/query.
func queryBody(q string) []byte {
	b, _ := json.Marshal(map[string]string{"query": q}) // a string map always marshals
	return b
}

// query posts one query and fails on any status but 200.
func (c *client) query(q string) ([]byte, time.Duration, error) {
	status, body, d, err := c.do("POST", "/v1/query", queryBody(q))
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("query %q: HTTP %d: %s", q, status, body)
	}
	return body, d, nil
}

// putTable loads one table script over PUT /v1/tables/{name}.
func (c *client) putTable(name, script string) error {
	status, body, _, err := c.do("PUT", "/v1/tables/"+name, []byte(script))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("PUT %s: HTTP %d: %s", name, status, body)
	}
	return nil
}

// load puts a model's Takes and Dept tables.
func (c *client) load(m *model) error {
	if err := c.putTable(m.table, m.takesScript()); err != nil {
		return err
	}
	return c.putTable(m.dept, m.deptScript())
}

// patch sends one PATCH and returns the acknowledged catalog version.
func (c *client) patch(name, script string) (uint64, time.Duration, error) {
	status, body, d, err := c.do("PATCH", "/v1/tables/"+name, []byte(script))
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("PATCH %s: HTTP %d: %s", name, status, body)
	}
	var ack struct {
		CatalogVersion uint64 `json:"catalogVersion"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, 0, fmt.Errorf("decoding PATCH ack: %v", err)
	}
	return ack.CatalogVersion, d, nil
}

// tableRows reads a table's row count from GET /v1/tables.
func (c *client) tableRows(name string) (int, error) {
	status, body, _, err := c.do("GET", "/v1/tables", nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/tables: HTTP %d", status)
	}
	var list struct {
		Tables []struct {
			Name string `json:"name"`
			Rows int    `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return 0, err
	}
	for _, t := range list.Tables {
		if t.Name == name {
			return t.Rows, nil
		}
	}
	return 0, fmt.Errorf("table %s not listed", name)
}

// engineWorkers reads the engine's worker bound from /v1/stats; it defaults
// to the server's GOMAXPROCS.
func (c *client) engineWorkers() int {
	status, body, _, err := c.do("GET", "/v1/stats", nil)
	if err != nil || status != http.StatusOK {
		return 0
	}
	var st struct {
		Engine struct {
			Workers int `json:"workers"`
		} `json:"engine"`
	}
	_ = json.Unmarshal(body, &st) // a zero reads as "unknown" in the record
	return st.Engine.Workers
}

// line is one subscription update with the time its last byte arrived.
type line struct {
	at   time.Time
	body []byte
}

// subscription is one open /v1/subscribe stream on its own connection.
type subscription struct {
	lines  chan line
	cancel context.CancelFunc
	done   chan struct{}
	hc     *http.Client
	dials  int
	err    error
}

func subscribe(base, q string) (*subscription, error) {
	s := &subscription{lines: make(chan line, 1), done: make(chan struct{})}
	s.hc = &http.Client{Transport: &http.Transport{Proxy: nil, DisableCompression: true}}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	trace := &httptrace.ClientTrace{ConnectStart: func(string, string) { s.dials++ }}
	body, _ := json.Marshal(map[string]any{"query": q, "maxUpdates": 1 << 30}) // plain map always marshals
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), "POST", "http://"+base+"/v1/subscribe", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: HTTP %d: %s", resp.StatusCode, msg)
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		r := bufio.NewReaderSize(resp.Body, 1<<20)
		for {
			b, err := r.ReadBytes('\n')
			if err != nil {
				s.err = err
				return
			}
			select {
			case s.lines <- line{time.Now(), b}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return s, nil
}

// next waits for the next update line.
func (s *subscription) next(timeout time.Duration) (line, error) {
	select {
	case l := <-s.lines:
		return l, nil
	case <-s.done:
		return line{}, fmt.Errorf("subscription stream ended: %v", s.err)
	case <-time.After(timeout):
		return line{}, fmt.Errorf("no subscription update within %v", timeout)
	}
}

// close ends the stream and waits for its reader to exit.
func (s *subscription) close() {
	s.cancel()
	<-s.done
	s.hc.CloseIdleConnections()
}
