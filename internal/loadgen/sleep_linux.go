package loadgen

import (
	"runtime"
	"syscall"
	"time"
)

// lockPacerThread gives the pacer an OS thread of its own with 1 µs timer
// slack instead of the default 50 µs: time.Sleep on an otherwise idle
// runtime wakes through the netpoller at millisecond granularity, which
// would put about a millisecond of lag into every arrival. The thread is
// never unlocked, so the runtime retires it, slack and all, when the
// pacer's goroutine exits. Setting the slack is best effort: without it
// the pacer only lags a little more, and reports it.
func lockPacerThread() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
}

// sleep blocks the pacer's thread in nanosleep. A signal — the runtime's
// preemption among them — ends it early with EINTR; the caller's loop
// sleeps again until the arrival is due.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
