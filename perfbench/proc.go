package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// proc is a child process of the benchmark: a covert sender or the
// experiments CLI.
type proc struct {
	cmd     *exec.Cmd
	started time.Time
	stdout  io.Reader // pipe, unless stdout goes to a file
	stderr  io.Reader // pipe, when requested
}

// startProc starts name with args and the benchmark's environment plus
// env. Its stdout is piped, or written to stdoutFile when that is
// non-empty; its stderr is piped when pipeStderr is set and goes to the
// benchmark's stderr otherwise.
func startProc(name string, args, env []string, stdoutFile string, pipeStderr bool) (*proc, error) {
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), env...)
	p := &proc{cmd: cmd}
	var err error
	if stdoutFile != "" {
		f, ferr := os.Create(stdoutFile)
		if ferr != nil {
			return nil, ferr
		}
		defer f.Close() // the child holds its own descriptor
		cmd.Stdout = f
	} else if p.stdout, err = cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	if pipeStderr {
		if p.stderr, err = cmd.StderrPipe(); err != nil {
			return nil, err
		}
	} else {
		cmd.Stderr = os.Stderr
	}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	return p, nil
}

// wait reaps the child once its pipes have been read to EOF. The error
// reports a failed wait or a non-zero exit.
func (p *proc) wait() (*os.ProcessState, error) {
	err := p.cmd.Wait()
	return p.cmd.ProcessState, err
}

// kill stops the child and reaps it.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // it may already have exited
	_ = p.cmd.Wait()
}

// killAfter kills the child if it is still running after d, so a hung
// program cannot hold the benchmark past its time limit. The returned
// function cancels the timer.
func (p *proc) killAfter(d time.Duration) (cancel func() bool) {
	t := time.AfterFunc(d, func() { _ = p.cmd.Process.Kill() }) // it may have exited meanwhile
	return t.Stop
}

// terminate asks the child to drain and exit (SIGTERM).
func (p *proc) terminate() error { return p.cmd.Process.Signal(syscall.SIGTERM) }

// rusage is the child's resource usage once reaped.
func rusage(ps *os.ProcessState) *syscall.Rusage {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru
	}
	return &syscall.Rusage{}
}

// rssMB is a reaped child's peak resident set in MiB.
func rssMB(ps *os.ProcessState) float64 { return float64(rusage(ps).Maxrss) / 1024 }

// cpuMS is a reaped child's user+system CPU time in milliseconds.
func cpuMS(ps *os.ProcessState) float64 {
	ru := rusage(ps)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}
