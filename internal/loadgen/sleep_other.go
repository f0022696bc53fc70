//go:build !linux

package loadgen

import "time"

// lockPacerThread is a no-op off Linux: the pacer sleeps on the runtime's
// timers and its lag shows in the Result.
func lockPacerThread() {}

func sleep(d time.Duration) { time.Sleep(d) }
