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

// daemon is one wsnlocd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port

	logMu   sync.Mutex
	log     []string      // stderr lines, for error reports
	logDone chan struct{} // closed once stderr hits EOF (the process exited)
}

// bootTimeout bounds how long a daemon may take to answer /healthz.
const bootTimeout = 30 * time.Second

// startDaemon launches bin on an ephemeral port and returns once /healthz
// answers 200.
func startDaemon(ctx context.Context, bin string, workers int, flags []string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers)}, flags...)
	cmd := exec.Command(bin, args...)
	// A benchmark killed mid-run must not leave its daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting wsnlocd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go d.readLog(stderr, addr)

	boot, cancel := context.WithTimeout(ctx, bootTimeout)
	defer cancel()
	select {
	case d.base = <-addr:
	case <-d.logDone:
		d.stop()
		return nil, fmt.Errorf("wsnlocd exited during boot: %s", d.logTail())
	case <-boot.Done():
		d.stop()
		return nil, fmt.Errorf("wsnlocd printed no address within %s: %s", bootTimeout, d.logTail())
	}
	for {
		if d.healthy(boot) {
			return d, nil
		}
		select {
		case <-boot.Done():
			d.stop()
			return nil, fmt.Errorf("wsnlocd /healthz not 200 within %s", bootTimeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// readLog collects stderr lines and hands the base URL from the
// "wsnlocd: serving http://…/" boot line to addr.
func (d *daemon) readLog(r io.Reader, addr chan<- string) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "wsnlocd: serving "); ok {
			select {
			case addr <- strings.TrimSuffix(strings.Fields(rest)[0], "/"):
			default:
			}
		}
		d.logMu.Lock()
		d.log = append(d.log, line)
		d.logMu.Unlock()
	}
}

func (d *daemon) logTail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log[max(0, len(d.log)-5):], " | ")
}

func (d *daemon) healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop drains the daemon with SIGTERM (SIGKILL after the boot timeout) and
// waits for it to exit. A daemon that does not drain cleanly is an error.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logDone:
	case <-time.After(bootTimeout):
		d.cmd.Process.Kill()
		<-d.logDone
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("wsnlocd did not drain cleanly: %v: %s", err, d.logTail())
	}
	return nil
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", d.cmd.Process.Pid)
}

// exposition is the part of wsnlocd's /metrics.json the benchmark reads:
// counters, and each histogram's sum and count.
type exposition struct {
	Counters   map[string]float64 `json:"counters"`
	Histograms map[string]struct {
		Sum   float64 `json:"sum"`
		Count float64 `json:"count"`
	} `json:"histograms"`
}

func (d *daemon) scrape(ctx context.Context) (exposition, error) {
	var e exposition
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics.json", nil)
	if err != nil {
		return e, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return e, fmt.Errorf("scraping /metrics.json: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return e, fmt.Errorf("scraping /metrics.json: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (exposition, error) {
	var e exposition
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return e, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return e, nil
}

// delta is what happened between two scrapes: counter increments and each
// histogram's added sum and count. Instruments born between the scrapes
// count from zero.
type delta struct{ after, before exposition }

func (d delta) counter(name string) float64 {
	return d.after.Counters[name] - d.before.Counters[name]
}

// mean is the average observation a histogram took between the scrapes
// (0 when it took none).
func (d delta) mean(name string) float64 {
	return ratio(d.after.Histograms[name].Sum-d.before.Histograms[name].Sum,
		d.after.Histograms[name].Count-d.before.Histograms[name].Count)
}

func (d delta) sum(name string) float64 {
	return d.after.Histograms[name].Sum - d.before.Histograms[name].Sum
}
