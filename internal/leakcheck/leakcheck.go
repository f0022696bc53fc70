// Package leakcheck is the goroutine settle assertion test suites end
// with: once every test of a package has returned, the goroutines they
// started — brokers, servers, connection handlers, peer links — must be
// gone. Use it from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// settleWithin is how long goroutines get to finish exiting after the last
// test: teardown paths close connections and return before the goroutines
// that were blocked on them have been scheduled out.
const settleWithin = 5 * time.Second

// Main runs the package's tests and exits non-zero if they passed but left
// more goroutines running than there were before, printing their stacks.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	// A -fuzz run leaves the fuzzing engine's own signal watcher behind;
	// `make fuzz` is not where leaks are looked for.
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		os.Exit(code)
	}
	deadline := time.Now().Add(settleWithin)
	for code == 0 && runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d before the suite, %d after\n", before, runtime.NumGoroutine())
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	os.Exit(code)
}
