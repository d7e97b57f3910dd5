package perfgate

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time the process has used so far, user plus
// system, over all its threads. Time the host gives to other processes never
// enters it, and helper goroutines the timed operation starts (the garbage
// collector's included) are counted.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfgate: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
