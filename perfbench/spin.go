package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

// The service workloads run while a spinner process keeps every CPU
// busy at the lowest priority (SCHED_IDLE), the way a benchmarking host
// boots with idle=poll. Without it the server and the generator, idle
// between requests, let their CPUs halt, and a halted virtual CPU wakes
// as late as its hypervisor schedules it: latencies then follow the
// load of the other guests on the host, not the program. With it, a
// thread that wakes preempts the spinner at once, so a wake-up costs a
// context switch inside the guest.

// spinLoop is the spinner process: one SCHED_IDLE thread per CPU,
// spinning until the benchmark closes the spinner's standard input or
// kills it. The spinning goroutines are
// not preemptible while inside pause, so the process gets one more P
// than it has spinners, for the goroutine that reports readiness. It
// allocates nothing once spinning, so no garbage collection has to
// stop them.
func spinLoop() error {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1)
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			if err := idleThread(); err != nil {
				errc <- err
				return
			}
			errc <- nil
			for {
				pause()
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			return fmt.Errorf("spinner: %w", err)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(readyLine{Addr: "spinning"}); err != nil {
		return err
	}
	exitWithParent()
	return nil
}

// exitWithParent returns when standard input, a pipe the parent holds
// open, reaches EOF: when the parent closes it or dies.
func exitWithParent() {
	_, _ = io.Copy(io.Discard, os.Stdin) // any end of the pipe means the parent is gone
}

// spinning runs fn while a spinner keeps the CPUs busy. SCHED_IDLE is
// Linux's; elsewhere fn runs without a spinner.
func spinning(fn func() error) error {
	if runtime.GOOS != "linux" {
		return fn()
	}
	s, err := startSpinner()
	if err != nil {
		return err
	}
	defer s.stop()
	return fn()
}

// spinner is a running spinner process.
type spinner struct{ cmd *exec.Cmd }

// startSpinner starts this binary's spin mode and waits until every
// spinning thread runs under SCHED_IDLE.
func startSpinner() (*spinner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "spin")
	cmd.Stderr = os.Stderr
	if _, err := cmd.StdinPipe(); err != nil { // held open until Wait; see exitWithParent
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &spinner{cmd: cmd}
	var ready readyLine
	if err := json.NewDecoder(out).Decode(&ready); err != nil {
		s.stop()
		return nil, fmt.Errorf("spinner did not start: %w", err)
	}
	return s, nil
}

// stop kills the spinner and waits for it to exit.
func (s *spinner) stop() {
	_ = s.cmd.Process.Kill() // already exited is fine
	_ = s.cmd.Wait()         // a killed spinner's exit status carries nothing
}
