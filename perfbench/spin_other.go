//go:build !linux

package main

import "errors"

func idleThread() error { return errors.New("SCHED_IDLE needs Linux") }
