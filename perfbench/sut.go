package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sut is one running `sentinel -listen` process: the system under test.
type sut struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	started time.Time
	ready   time.Time // first 200 from GET /deployments
	stdout  bytes.Buffer
	stderr  *tailBuffer
	exited  chan struct{}
	waitErr error
	client  *http.Client
}

// live tracks running SUTs so a signal to the benchmark can stop them.
var live = struct {
	sync.Mutex
	m map[*sut]bool
}{m: map[*sut]bool{}}

func killAll() {
	live.Lock()
	running := make([]*sut, 0, len(live.m))
	for s := range live.m {
		running = append(running, s)
	}
	live.Unlock()
	for _, s := range running {
		s.kill()
	}
}

var servingURL = regexp.MustCompile(`"url":"(http://[^"/]+)/ingest"`)

// startSUT launches sentinel in serve mode on an ephemeral loopback port
// with its default serve flags plus extra, and returns once the listener
// answers GET /deployments.
func startSUT(bin string, extra ...string) (*sut, error) {
	args := append([]string{"-listen", "127.0.0.1:0", "-json"}, extra...)
	s := &sut{
		cmd:    exec.Command(bin, args...),
		stderr: &tailBuffer{max: 64 << 10},
		exited: make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	s.cmd.Stdout = &s.stdout
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sentinel: %w", err)
	}
	live.Lock()
	live.m[s] = true
	live.Unlock()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(errPipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Bytes()
			if !found {
				if m := servingURL.FindSubmatch(line); m != nil {
					found = true
					addr <- string(m[1])
				}
			}
			s.stderr.Write(line)
			s.stderr.Write([]byte{'\n'})
		}
		_, _ = io.Copy(io.Discard, errPipe)
		s.waitErr = s.cmd.Wait()
		live.Lock()
		delete(live.m, s)
		live.Unlock()
		close(s.exited)
	}()
	select {
	case s.base = <-addr:
	case <-s.exited:
		return nil, fmt.Errorf("sentinel exited before serving: %v\n%s", s.waitErr, s.stderr)
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("sentinel did not start serving within 60s\n%s", s.stderr)
	}
	for {
		resp, err := s.client.Get(s.base + "/deployments")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Now()
				return s, nil
			}
		}
		if time.Since(s.started) > 60*time.Second {
			s.kill()
			return nil, fmt.Errorf("GET /deployments never answered 200: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *sut) pid() int { return s.cmd.Process.Pid }

// kill SIGKILLs the process (a crash) and waits for it to exit.
func (s *sut) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
}

// stop sends SIGTERM — sentinel drains the fleet and prints every
// deployment's report as JSON — waits for the exit, and returns stdout.
func (s *sut) stop() ([]byte, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	select {
	case <-s.exited:
	case <-time.After(90 * time.Second):
		s.kill()
		return nil, errors.New("sentinel did not exit within 90s of SIGTERM")
	}
	if s.waitErr != nil {
		return nil, fmt.Errorf("sentinel: %v\n%s", s.waitErr, s.stderr)
	}
	return s.stdout.Bytes(), nil
}

func (s *sut) get(path string) ([]byte, int, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// queueSaturation reads the fullest shard queue's fill fraction from
// /healthz (served with 503 when degraded; the body is the same document).
func (s *sut) queueSaturation() (float64, error) {
	body, _, err := s.get("/healthz")
	if err != nil {
		return 0, err
	}
	var h struct {
		QueueSaturation float64 `json:"queue_saturation"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, fmt.Errorf("/healthz: %w", err)
	}
	return h.QueueSaturation, nil
}

// deploymentStatus is the part of GET /status the benchmark reads.
type deploymentStatus struct {
	Deployment   string `json:"deployment"`
	Shard        int    `json:"shard"`
	Bootstrapped bool   `json:"bootstrapped"`
}

func (s *sut) status() ([]deploymentStatus, error) {
	body, code, err := s.get("/status")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/status: %d", code)
	}
	var st struct {
		Deployments []deploymentStatus `json:"deployments"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("/status: %w", err)
	}
	return st.Deployments, nil
}

// settle waits until every shard queue is empty and, when want > 0, at
// least want deployments have left bootstrap.
func (s *sut) settle(want int) error {
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		sat, err := s.queueSaturation()
		if err != nil {
			return err
		}
		if sat == 0 {
			if want <= 0 {
				return nil
			}
			deps, err := s.status()
			if err != nil {
				return err
			}
			n := 0
			for _, d := range deps {
				if d.Bootstrapped {
					n++
				}
			}
			if n >= want {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("sentinel queues did not drain within 90s")
}

// memStats is the runtime.MemStats excerpt the heap profile prints.
type memStats struct {
	HeapAlloc, TotalAlloc, NumGC uint64
}

// heapMB is the live heap in MiB.
func (m memStats) heapMB() float64 { return float64(m.HeapAlloc) / (1 << 20) }

// heap reads the SUT's memory statistics from the outside: the debug=1 heap
// profile after a forced GC, whose trailer prints runtime.MemStats.
func (s *sut) heap() (memStats, error) {
	body, code, err := s.get("/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return memStats{}, err
	}
	if code != http.StatusOK {
		return memStats{}, fmt.Errorf("heap profile: %d", code)
	}
	return parseMemStats(body)
}

func parseMemStats(body []byte) (memStats, error) {
	var ms memStats
	fields := map[string]*uint64{
		"# HeapAlloc = ":  &ms.HeapAlloc,
		"# TotalAlloc = ": &ms.TotalAlloc,
		"# NumGC = ":      &ms.NumGC,
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		for prefix, dst := range fields {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
				if err != nil {
					return memStats{}, fmt.Errorf("heap profile %q: %w", line, err)
				}
				*dst = n
				found++
			}
		}
	}
	if found != len(fields) {
		return memStats{}, errors.New("heap profile: MemStats trailer missing")
	}
	return ms, nil
}

// counters scrapes /metrics and returns every counter or gauge sample whose
// name starts with prefix, keyed by its full series name.
func (s *sut) counters(prefix string) (map[string]float64, error) {
	body, code, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %d", code)
	}
	return parseSeries(body, prefix), nil
}

func parseSeries(body []byte, prefix string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// tailBuffer keeps the last max bytes written, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if over := len(b.buf) - b.max; over > 0 {
		b.buf = append(b.buf[:0], b.buf[over:]...)
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

// freshDir makes an empty directory under root.
func freshDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
