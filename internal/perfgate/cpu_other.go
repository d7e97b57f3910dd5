//go:build !linux

package perfgate

import "time"

var epoch = time.Now()

// cpuTime falls back to wall time off Linux, where the gates read no CPU
// clock.
func cpuTime() time.Duration { return time.Since(epoch) }
