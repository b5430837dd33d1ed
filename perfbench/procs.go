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
	"sync"
	"syscall"
	"time"
)

// server is one capserved process the benchmark launched.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port once listening
	logDone chan struct{}
	mu      sync.Mutex
	logTail []string // last stderr lines, for error reports
}

// listenPrefixes are the boot lines capserved prints once its listener
// is bound (node and coordinator mode). The warm store has been loaded
// by then, so the first request after this line is served.
var listenPrefixes = []string{"capserved: listening on http://", "coordinator: listening on http://"}

// startServer execs bin with args and waits until it is listening and
// answers /readyz. Readiness comes from the boot line on stderr, not
// from polling, so set-up times are not quantized by a poll interval.
func startServer(ctx context.Context, bin string, env []string, args ...string) (*server, error) {
	s := &server{cmd: exec.Command(bin, args...), logDone: make(chan struct{})}
	s.cmd.Env = append(os.Environ(), env...)
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go s.readLog(stderr, addr)
	bootCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.logDone:
		s.stop()
		return nil, fmt.Errorf("%s exited before listening: %s", bin, s.tail())
	case <-bootCtx.Done():
		s.stop()
		return nil, fmt.Errorf("%s did not start listening: %s", bin, s.tail())
	}
	if err := getOK(bootCtx, http.DefaultClient, s.base+"/readyz"); err != nil {
		s.stop()
		return nil, fmt.Errorf("%s not ready: %v", s.base, err)
	}
	return s, nil
}

// readLog drains the child's stderr until it closes, reporting the
// bound address from the listening line and keeping a short tail.
func (s *server) readLog(r io.Reader, addr chan<- string) {
	defer close(s.logDone)
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent {
			for _, p := range listenPrefixes {
				if rest, ok := strings.CutPrefix(line, p); ok {
					addr <- strings.Fields(rest)[0]
					sent = true
				}
			}
		}
		s.mu.Lock()
		s.logTail = append(s.logTail, line)
		if len(s.logTail) > 20 {
			s.logTail = s.logTail[1:]
		}
		s.mu.Unlock()
	}
}

func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.logTail, " | ")
}

// stop drains the process with SIGTERM, kills it if the drain overruns,
// and waits until it has exited and its log is read.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // exit status of a drained server is not a benchmark result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	<-s.logDone
}

// stopAll stops the servers concurrently and waits for all of them.
func stopAll(ss []*server) {
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.stop()
		}()
	}
	wg.Wait()
}

// getOK GETs url and requires a 200.
func getOK(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// getJSON GETs url and decodes its JSON body into a generic map of
// numbers, keeping 64-bit counters exact.
func getJSON(ctx context.Context, url string) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return m, nil
}

// counters is a flat snapshot of one server's numeric /varz and
// /v1/stats fields.
type counters map[string]float64

// scrape reads /varz and /v1/stats of s. Nested objects are skipped:
// the benchmark uses only top-level counters.
func scrape(ctx context.Context, s *server) (counters, error) {
	c := counters{}
	for _, path := range []string{"/varz", "/v1/stats"} {
		m, err := getJSON(ctx, s.base+path)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			if n, ok := v.(json.Number); ok {
				f, err := n.Float64()
				if err == nil {
					c[k] = f
				}
			}
		}
	}
	return c, nil
}

// addDeltas adds after−before of every counter, summed over a set of
// servers, to sum.
func addDeltas(sum counters, before, after []counters) {
	for i := range after {
		for k, v := range after[i] {
			sum[k] += v - before[i][k]
		}
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times. Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// cpuSeconds is the user+system CPU time of pid so far.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMiB is the VmHWM (peak resident set) of pid in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
