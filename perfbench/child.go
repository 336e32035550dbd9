package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// opTimeout bounds one child process; a run is cut well before the
// 180-second limit on the whole benchmark.
const opTimeout = 60 * time.Second

// procResult is one finished child process as the benchmark saw it.
type procResult struct {
	Wall     float64 `json:"wall"` // seconds, start to exit
	User     float64 `json:"user"` // CPU seconds
	Sys      float64 `json:"sys"`
	MaxRSSKB int64   `json:"maxrss_kb"`
	Exit     int     `json:"exit"`
	Stdout   string  `json:"stdout"`
	Stderr   string  `json:"stderr"`
}

// runProc runs bin with args to completion and returns its wall time,
// rusage and output. A non-zero exit is reported in Exit, not as an
// error; the error is for a process that could not be run at all.
//
// The process is started by a launcher, this binary with -exec-child.
// Linux books the memory of the process that execs into a new program
// as that program's peak RSS, and Go starts children by exec from a
// vfork of the caller: started from the harness, every child would
// report at least the harness's own footprint, which holds the
// generated corpus. The launcher is small, so the child's peak is its
// own.
func runProc(ctx context.Context, bin string, args ...string) (procResult, error) {
	self, err := os.Executable()
	if err != nil {
		return procResult{}, err
	}
	// The launcher enforces opTimeout on its child; this margin only
	// catches a launcher that hangs itself.
	ctx, cancel := context.WithTimeout(ctx, opTimeout+10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, append([]string{"-exec-child", "--", bin}, args...)...)
	cmd.SysProcAttr = diesWithParent()
	out, err := cmd.Output()
	if err != nil {
		return procResult{}, fmt.Errorf("launching %s: %w", bin, err)
	}
	var res procResult
	if err := json.Unmarshal(out, &res); err != nil {
		return procResult{}, fmt.Errorf("launcher result for %s: %w", bin, err)
	}
	return res, nil
}

// execChild is the launcher: it runs argv to completion and prints its
// procResult as JSON.
func execChild(argv []string) int {
	if len(argv) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -exec-child needs a command")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.SysProcAttr = diesWithParent()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		fmt.Fprintf(os.Stderr, "perfbench: running %s: %v\n", argv[0], err)
		return 1
	}
	res := procResult{
		Wall:   wall,
		Exit:   cmd.ProcessState.ExitCode(),
		Stdout: stdout.String(),
		Stderr: stderr.String(),
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.User = tv(ru.Utime)
		res.Sys = tv(ru.Stime)
		res.MaxRSSKB = ru.Maxrss
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// diesWithParent makes a child process receive SIGKILL when the process
// that started it exits, so no child outlives a benchmark run that was
// itself killed.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// selfCPU returns this process's user+sys CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads a running process's user+sys CPU seconds from
// /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	return (ut + st) / clockTicks, nil
}

// procPeakRSSKB reads a running process's peak resident set (VmHWM).
func procPeakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// dirStats sums the sizes of the regular files in dir whose names start
// with prefix, and counts them.
func dirStats(dir, prefix string) (bytes int64, files int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
			files++
		}
	}
	return bytes, files
}

// copyDir copies the regular files of src into a new directory dst,
// keeping their permission bits (state directories are 0700 with 0600
// files). The copies are synced, so restored state is on disk before
// the op that uses it starts, as it would be after the run that made it.
func copyDir(src, dst string) error {
	info, err := os.Stat(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, info.Mode().Perm()); err != nil {
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
		fi, err := e.Info()
		if err != nil {
			return err
		}
		b, err := os.ReadFile(src + "/" + e.Name())
		if err != nil {
			return err
		}
		if err := writeSynced(dst+"/"+e.Name(), b, fi.Mode().Perm()); err != nil {
			return err
		}
	}
	return nil
}

func writeSynced(path string, b []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
