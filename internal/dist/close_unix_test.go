//go:build unix

package dist

import (
	"errors"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestFleetCloseRightAfterDial: closing a stdio fleet before any
// dispatch must close every connection the dial opened — each slot
// runner may see the closed flag before it ever drives its connection.
// Afterwards the goroutine count returns to its baseline (stacks are
// dumped otherwise) and every worker subprocess has been reaped, not
// left running or as a zombie.
func TestFleetCloseRightAfterDial(t *testing.T) {
	checkGoroutines := leakcheck.Goroutines(t)
	f, err := Dial(Config{Procs: 2})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	pidRe := regexp.MustCompile(`pid (\d+)`)
	var pids []int
	f.mu.Lock()
	for _, s := range f.slots {
		if s.wc == nil {
			continue
		}
		if m := pidRe.FindStringSubmatch(s.wc.name); m != nil {
			pid, _ := strconv.Atoi(m[1])
			pids = append(pids, pid)
		}
	}
	f.mu.Unlock()
	f.Close()
	if len(pids) != 2 {
		t.Fatalf("found worker pids %v in the slot names, want 2", pids)
	}

	checkGoroutines()
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for {
			err := syscall.Kill(pid, 0)
			if errors.Is(err, syscall.ESRCH) {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("worker pid %d not reaped after Close (kill 0: %v)", pid, err)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
