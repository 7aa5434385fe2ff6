package main

import (
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: a thread under it runs only
// when nothing else wants the CPU, and any other thread that wakes up
// preempts it at once.
const schedIdle = 5

// idleThread puts the calling OS thread under SCHED_IDLE.
func idleThread() error {
	var prio int32 // SCHED_IDLE takes priority 0
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio)))
	if e != 0 {
		return e
	}
	return nil
}
