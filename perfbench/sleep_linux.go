package main

import (
	"syscall"
	"time"
)

// sleep waits d with nanosleep(2). The runtime's timers wake a sleeping
// goroutine up to a millisecond late on Linux, which an open-loop
// generator would charge to every request; nanosleep overshoots by the
// kernel's timer slack (about 50µs) instead.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
