// Package leakcheck is a test helper for lifecycle checks: after a
// fleet closes, a server drains, or a watcher stops, every goroutine
// the lifecycle started must be gone. Standard library only.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Goroutines records the goroutine count now and returns a check for
// later: it waits up to ten seconds for the count to fall back to that
// baseline and, if it does not, fails t with every goroutine's stack.
// Take the baseline before the lifecycle under test starts anything.
func Goroutines(t testing.TB) (check func()) {
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("%d goroutines left, baseline %d; stacks:\n%s", n, base, buf)
		}
	}
}
