package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// child is one program under test. Every child runs in its own process
// group so that a failure path can kill it with whatever it spawned.
type child struct {
	name    string
	cmd     *exec.Cmd
	errPath string // its stderr, a file so it can be read while it runs
	done    chan struct{}
	waitErr error
	hwmKB   atomic.Int64 // highest VmHWM seen while it ran

	// While sliceEvery is positive the watcher also keeps the peak of every
	// slice of that length, resetting the kernel's high-water mark between
	// slices: a long-lived child's peak over a whole run is one extreme
	// value, the median of its slices is a steady one.
	sliceEvery atomic.Int64 // nanoseconds
	sliceMu    sync.Mutex
	slicesKB   []int64
}

// procs owns every child of one run: start registers, stopAll kills what is
// left. main defers stopAll, so no exit path leaves a process behind.
type procs struct {
	dir string // temp dir for logs
	mu  sync.Mutex
	all []*child
	seq int
}

func (p *procs) start(ctx context.Context, stdoutPath string, bin string, args ...string) (*child, error) {
	p.mu.Lock()
	p.seq++
	name := fmt.Sprintf("%s-%d", filepath.Base(bin), p.seq)
	p.mu.Unlock()
	c := &child{name: name, errPath: filepath.Join(p.dir, name+".log"), done: make(chan struct{})}
	errFile, err := os.Create(c.errPath)
	if err != nil {
		return nil, err
	}
	defer errFile.Close() // the child holds its own descriptor
	c.cmd = exec.CommandContext(ctx, bin, args...)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	c.cmd.Cancel = func() error { return syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) }
	c.cmd.Stderr = errFile
	if stdoutPath != "" {
		outFile, err := os.Create(stdoutPath)
		if err != nil {
			return nil, err
		}
		defer outFile.Close()
		c.cmd.Stdout = outFile
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() { c.waitErr = c.cmd.Wait(); close(c.done) }()
	go c.watchRSS()
	p.mu.Lock()
	p.all = append(p.all, c)
	p.mu.Unlock()
	return c, nil
}

// kill SIGKILLs the child's process group and waits for it to be reaped.
func (c *child) kill() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // it may have just exited
	<-c.done
}

// stop asks the child to exit with SIGTERM, and kills it after grace.
func (c *child) stop(grace time.Duration) {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // it may have just exited
	select {
	case <-c.done:
	case <-time.After(grace):
		c.kill()
	}
}

// wait blocks until the child exits or ctx ends (then it is killed).
func (c *child) wait(ctx context.Context) error {
	select {
	case <-c.done:
		return c.waitErr
	case <-ctx.Done():
		c.kill()
		return fmt.Errorf("%s: %w", c.name, ctx.Err())
	}
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// watchRSS samples the child's VmHWM until it exits. The rusage a parent
// gets from wait4 cannot be used for this: Linux carries ru_maxrss across
// exec, so a child forked from a large driver reports the driver's size.
func (c *child) watchRSS() {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	status := "/proc/" + pid + "/status"
	var sliceStart time.Time
	for {
		kb := vmHWM(status)
		if kb > c.hwmKB.Load() {
			c.hwmKB.Store(kb)
		}
		switch every := time.Duration(c.sliceEvery.Load()); {
		case every <= 0:
			sliceStart = time.Time{}
		case sliceStart.IsZero():
			resetHWM(pid)
			sliceStart = time.Now()
		case time.Since(sliceStart) >= every && kb > 0:
			c.sliceMu.Lock()
			c.slicesKB = append(c.slicesKB, kb)
			c.sliceMu.Unlock()
			resetHWM(pid)
			sliceStart = time.Now()
		}
		select {
		case <-c.done:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// vmHWM reads the peak resident set, in KiB, from a /proc status file; 0
// when the process is gone.
func vmHWM(statusPath string) int64 {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if !ok {
		return 0
	}
	kb, _ := strconv.ParseInt(strings.Fields(rest)[0], 10, 64) // malformed reads as 0
	return kb
}

// resetHWM sets a process's peak resident set back to its current one
// ("5" to clear_refs, see proc(5)); pid may be "self". Where the kernel
// refuses, peaks simply accumulate, which only makes them less steady.
func resetHWM(pid string) {
	_ = os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0) // see above
}

// rssMB is the child's peak resident set in MiB, as last sampled.
func (c *child) rssMB() float64 { return float64(c.hwmKB.Load()) / 1024 }

// sliceRSS starts (every > 0) or stops (0) keeping per-slice peaks.
func (c *child) sliceRSS(every time.Duration) { c.sliceEvery.Store(int64(every)) }

// slicePeaksMB returns the per-slice peaks kept so far, in MiB; with none,
// the peak over the child's whole life.
func (c *child) slicePeaksMB() []float64 {
	c.sliceMu.Lock()
	defer c.sliceMu.Unlock()
	if len(c.slicesKB) == 0 {
		return []float64{c.rssMB()}
	}
	mb := make([]float64, len(c.slicesKB))
	for i, kb := range c.slicesKB {
		mb[i] = float64(kb) / 1024
	}
	return mb
}

func (c *child) log() string {
	b, _ := os.ReadFile(c.errPath) // diagnostics only
	return string(b)
}

func (p *procs) stopAll() {
	p.mu.Lock()
	all := p.all
	p.mu.Unlock()
	for _, c := range all {
		c.kill()
	}
}

// selfRSSMB is this process's own peak resident set in MiB.
func selfRSSMB() float64 { return float64(vmHWM("/proc/self/status")) / 1024 }

// pollFile waits for a non-empty file and returns its contents.
func pollFile(ctx context.Context, path string, who *child) (string, error) {
	for {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return string(b), nil
		}
		if who.exited() {
			return "", fmt.Errorf("%s exited before writing %s: %v\n%s", who.name, filepath.Base(path), who.waitErr, who.log())
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("waiting for %s: %w", filepath.Base(path), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// buildPrograms compiles the programs under test from the repository's
// source into binDir. The Go build cache makes a repeat call cheap.
func buildPrograms(repoRoot, binDir string, names ...string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", binDir + string(os.PathSeparator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %v in %s: %v\n%s", names, repoRoot, err, out)
	}
	return nil
}
