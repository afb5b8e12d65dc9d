package main

import (
	"bytes"
	"errors"
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

	"predperf/internal/obs"
)

// findRoot walks up from the working directory to the predperf module
// root, whose cmd/ packages the role binaries are built from.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(raw), "module predperf\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no predperf module (go.mod) above the working directory")
		}
		dir = parent
	}
}

// buildRoles compiles predserve, predrouter and simworker from source
// into dir. It is not timed.
func buildRoles(dir string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/predserve", "./cmd/predrouter", "./cmd/simworker")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building role binaries: %w", err)
	}
	return nil
}

// role is one running role process, started with its shipped defaults
// plus a loopback listen address.
type role struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// startRole starts bin/name on a free loopback port and waits until it
// prints its listen address and answers GET readyPath with 200. The
// role's stdout and stderr (including the default access log) go to
// files in the work directory.
func startRole(e *env, name, readyPath string, args ...string) (*role, error) {
	out, err := os.CreateTemp(e.work, name+"-*.stdout")
	if err != nil {
		return nil, err
	}
	defer out.Close()
	errf, err := os.CreateTemp(e.work, name+"-*.stderr")
	if err != nil {
		return nil, err
	}
	defer errf.Close()
	cmd := exec.Command(filepath.Join(e.bin, name), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = out, errf
	// A role must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	r := &role{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(r.done)
	}()
	fail := func(err error) (*role, error) {
		r.stop()
		logTail, _ := os.ReadFile(errf.Name())
		if len(logTail) > 2000 {
			logTail = logTail[len(logTail)-2000:]
		}
		return nil, fmt.Errorf("%s: %w; stderr: %s", name, err, logTail)
	}
	deadline := time.Now().Add(20 * time.Second)
	for r.url == "" {
		raw, _ := os.ReadFile(out.Name())
		if _, rest, ok := strings.Cut(string(raw), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				r.url = "http://" + strings.TrimSpace(addr)
				break
			}
		}
		select {
		case <-r.done:
			return fail(errors.New("exited before listening"))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fail(errors.New("no listen address within 20s"))
		}
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := probe.Get(r.url + readyPath)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("%s not ready within 20s", readyPath))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the role to drain, kills it if it has not exited within
// ten seconds, and waits until it is gone.
func (r *role) stop() {
	if r == nil {
		return
	}
	r.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		r.cmd.Process.Kill()
		<-r.done
	}
}

func stopAll(rs []*role) {
	for _, r := range rs {
		r.stop()
	}
}

func (r *role) pid() int { return r.cmd.Process.Pid }

// procCPU is the user plus system CPU time a process has used, from
// /proc/<pid>/stat (clock ticks of 10ms).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// selfCPU is this process's user plus system CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is a process's peak resident set size (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts a process's VmHWM from its current RSS, so the
// next read is the peak of the work in between.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

func rolesResetRSS(rs []*role) error {
	for _, r := range rs {
		if err := resetPeakRSS(r.pid()); err != nil {
			return err
		}
	}
	return nil
}

// rolesCPU sums the CPU time of the given roles.
func rolesCPU(rs []*role) (time.Duration, error) {
	var sum time.Duration
	for _, r := range rs {
		d, err := procCPU(r.pid())
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// rolesRSS sums the peak RSS of the given roles.
func rolesRSS(rs []*role) (float64, error) {
	var sum float64
	for _, r := range rs {
		v, err := peakRSSMiB(r.pid())
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// newClient is the load generator's HTTP client: at most two
// connections to any one role, matching the two CPUs of the reference
// host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
		},
	}
}

// post sends a JSON body and returns the status and response body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// get fetches url and returns the status and body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// scrape reads a role's /metricz report.
func scrape(c *http.Client, r *role) (*obs.Report, error) {
	status, raw, err := get(c, r.url+"/metricz")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s /metricz answered %d", r.name, status)
	}
	return obs.ReadReport(bytes.NewReader(raw))
}

// scrapeAll reads /metricz of every role.
func scrapeAll(c *http.Client, rs []*role) ([]*obs.Report, error) {
	out := make([]*obs.Report, len(rs))
	for i, r := range rs {
		rep, err := scrape(c, r)
		if err != nil {
			return nil, err
		}
		out[i] = rep
	}
	return out, nil
}

// histDelta is the change in count and sum of one histogram between two
// scrapes of each role, summed over the roles.
func histDelta(before, after []*obs.Report, name string) (count int64, sum float64) {
	for i := range after {
		a, b := after[i].Histograms[name], before[i].Histograms[name]
		count += a.Count - b.Count
		sum += a.Sum - b.Sum
	}
	return count, sum
}

// counterDelta is the change of a counter between two scrapes, summed
// over the roles.
func counterDelta(before, after []*obs.Report, name string) int64 {
	var d int64
	for i := range after {
		d += after[i].Counters[name] - before[i].Counters[name]
	}
	return d
}
