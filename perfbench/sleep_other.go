//go:build !linux

package main

import "time"

// sleep waits d; see sleep_linux.go for why Linux does not use the
// runtime timer.
func sleep(d time.Duration) { time.Sleep(d) }
