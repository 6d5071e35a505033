package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
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

	"cognicryptgen/wire"
)

// daemon is one cryptgend process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	// setup is the time from exec to ready (see startDaemon).
	setup       time.Duration
	fingerprint string
	// mon polls /readyz and /metrics on its own connection, apart from the
	// load's connections.
	mon *http.Client
}

// startDaemon execs bin serving the module at root on a free loopback port,
// with no snapshot directory, and waits until it is ready: /readyz reports
// "ok" and /metrics shows a compiled plan for every embedded template. The
// daemon answers /readyz before its background warm-up ends, so the plan
// count is what shows that the rule compile, the type-check universe build
// and the plan warm are all done.
func startDaemon(bin, root string, logw io.Writer) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-dir", root, "-drain", "5s")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = logw, logw
	// The daemon must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{
		cmd:    cmd,
		url:    "http://" + addr,
		exited: make(chan struct{}),
		mon:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 5 * time.Second},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = cmd.Wait() // the exit status is reported through exited
		close(d.exited)
	}()
	deadline := start.Add(60 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("cryptgend exited during start-up: %v", cmd.ProcessState)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("cryptgend not ready after 60s")
		}
		var ready wire.ReadyResponse
		if d.get("/readyz", &ready) == nil && ready.Status == wire.ReadyOK {
			if m, err := d.metrics(); err == nil && m.PlanEntries >= len(allTemplates) {
				d.setup = time.Since(start)
				d.fingerprint = ready.Fingerprint
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) get(path string, out any) error {
	resp, err := d.mon.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (d *daemon) metrics() (wire.Metrics, error) {
	var m wire.Metrics
	err := d.get("/metrics", &m)
	return m, err
}

// stop sends SIGTERM, then SIGKILL if the drain takes over 10s, and waits
// for the process to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.mon.CloseIdleConnections()
}

// cpuTime is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks per second).
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past its closing parenthesis.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	var ticks int64
	for _, f := range fields[11:13] { // utime, stime
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// memMB reads one memory field of the daemon's /proc status, such as
// "VmHWM" (peak resident set) or "VmRSS", in MiB.
func (d *daemon) memMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return float64(kb) / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// queueSampler polls /metrics every 100ms and keeps the largest worker
// queue depth and waiter count seen; it also samples the resident set.
type queueSampler struct {
	depthMax, waitersMax int
	rss                  []float64 // VmRSS samples, MiB
	stop                 chan struct{}
	done                 chan struct{}
}

func (d *daemon) sampleQueue(ctx context.Context) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if m, err := d.metrics(); err == nil {
					q.depthMax = max(q.depthMax, m.QueueDepth)
					q.waitersMax = max(q.waitersMax, m.QueueWaiters)
				}
				if rss, err := d.memMB("VmRSS"); err == nil {
					q.rss = append(q.rss, rss)
				}
			}
		}
	}()
	return q
}

// finish stops the sampler and waits for it.
func (q *queueSampler) finish() {
	close(q.stop)
	<-q.done
}

// counterDiff is the change in the daemon's counters over the timed
// window.
type counterDiff struct {
	generates, analyzes, hits, coalesced, local int64
	planHits, planMisses, reloads, shed         int64
}

func diffMetrics(a, b wire.Metrics) counterDiff {
	return counterDiff{
		generates:  b.GenerateRequests - a.GenerateRequests,
		analyzes:   b.AnalyzeRequests - a.AnalyzeRequests,
		hits:       b.CacheHits - a.CacheHits,
		coalesced:  b.Coalesced - a.Coalesced,
		local:      b.CacheMisses - a.CacheMisses,
		planHits:   b.PlanHits - a.PlanHits,
		planMisses: b.PlanMisses - a.PlanMisses,
		reloads:    b.Reloads - a.Reloads,
		shed:       b.ShedTotal - a.ShedTotal,
	}
}

// pipelineRuns counts generations that ran the full pipeline: every
// request here is plan-eligible, so each one that found no plan is a plan
// miss.
func (c counterDiff) pipelineRuns() int64 { return c.planMisses }

// planServed counts local generations (result-cache misses) served by a
// plan splice.
func (c counterDiff) planServed() int64 { return c.local - c.planMisses }
