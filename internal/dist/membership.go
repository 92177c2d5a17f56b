// Live fleet membership (PR 10): slots join and drain mid-session.
// AddHost dials a new TCP worker and grafts it into the running
// scheduler as a fresh slot — its runner starts claiming from live
// dispatches immediately. Retire drains a slot: its in-flight jobs
// requeue through the same (blameless) path a death takes, and the
// slot leaves service for good. WatchHosts polls a hosts file and
// reconciles the fleet against it, so an operator can grow or shrink
// a long-running session by editing one file. All of it is pure
// scheduling: membership changes move which connection serves a job,
// never the job's bytes.

package dist

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// AddHost dials one TCP worker endpoint and adds it to the running
// session as a new slot. The dial (and handshake) happens before the
// scheduler learns anything, so a dead host costs the caller a dial
// timeout but never stalls dispatches in flight. Adding an address
// that already has an active (non-retired) slot is an error; a
// retired slot's address can be re-added — the new slot starts with a
// fresh respawn budget, which is exactly what an operator replacing a
// crashed host wants.
func (f *Fleet) AddHost(h Host) error {
	name := "tcp:" + h.Addr
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("dist: fleet is closed")
	}
	for _, s := range f.slots {
		if s.name == name && !s.retired && !s.draining {
			f.mu.Unlock()
			return fmt.Errorf("dist: host %s already has an active slot", h.Addr)
		}
	}
	f.mu.Unlock()
	cfg := f.cfg
	s := &slot{name: name, met: newSlotMetrics(name), dial: func() (*workerConn, error) { return dialWorker(h, cfg) }}
	wc, err := s.dial()
	if err != nil {
		return err
	}
	wc.win = newAdaptiveWindow(cfg)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		wc.close()
		return errors.New("dist: fleet is closed")
	}
	s.wc = wc
	f.slots = append(f.slots, s)
	f.startSlot(s)
	f.cond.Broadcast()
	f.mu.Unlock()
	return nil
}

// Retire drains the slot serving addr (with or without the "tcp:"
// prefix; "proc:N" names a subprocess slot) and blocks until it has
// left service: its connection is torn down, every in-flight job is
// requeued — blamelessly, via the same path a death takes, so
// quarantine evidence never accrues from an operator's drain — and
// the slot retires for good. Retiring the last able slot strands any
// live dispatches exactly as total fleet loss would.
func (f *Fleet) Retire(addr string) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("dist: fleet is closed")
	}
	var target *slot
	for _, s := range f.slots {
		if (s.name == addr || s.name == "tcp:"+addr) && !s.retired && !s.draining {
			target = s
			break
		}
	}
	if target == nil {
		f.mu.Unlock()
		return fmt.Errorf("dist: no active slot %q to retire", addr)
	}
	target.draining = true
	f.cond.Broadcast()
	f.mu.Unlock()
	target.interrupt() // abort any backoff sleep or in-flight dial
	<-target.done      // runner exits only after the drain bookkeeping ran
	return nil
}

// WatchHosts reconciles the fleet against a hosts file: the file is
// parsed now (fatally — a broken initial file is a config error) and
// then polled every interval (min 100ms; 0 selects 2s), adding a
// slot for every address that appears and retiring the slot of every
// address that disappears. Only TCP slots are managed; subprocess
// slots ("proc:N") are never touched. The file uses the -hosts flag
// syntax, comma- or newline-separated (addr or addr*pool). Reconcile
// failures after the initial load — an unreadable file, a malformed
// entry, an unreachable new host — are logged and retried next tick,
// never fatal: a long-running session must survive a fat-fingered
// edit. The returned stop function ends the watch and waits for the
// poller to exit; it is idempotent and safe to call from several
// goroutines at once. Close does not stop it, so call stop before
// Close.
func (f *Fleet) WatchHosts(path string, interval time.Duration) (stop func(), err error) {
	hosts, err := LoadHostsFile(path)
	if err != nil {
		return nil, err
	}
	if err := f.reconcileHosts(hosts); err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = 2 * time.Second
	} else if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	lg := logOf(f.cfg)
	stopC := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stopC:
				return
			case <-tick.C:
				hosts, err := LoadHostsFile(path)
				if err != nil {
					lg.Warn("dist: hosts file unreadable; keeping current fleet", "path", path, "err", err)
					continue
				}
				if err := f.reconcileHosts(hosts); err != nil {
					lg.Warn("dist: hosts file reconcile incomplete", "path", path, "err", err)
				}
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(stopC)
		<-done
	}), nil
}

// LoadHostsFile reads and parses one hosts file: the -hosts flag
// syntax with newlines also accepted as separators and '#' starting a
// comment line. It is the parse WatchHosts applies on every poll,
// exported so CLIs can seed a fleet from the same file they then
// watch.
func LoadHostsFile(path string) ([]Host, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cleaned := make([]byte, 0, len(raw))
	atLineStart := true
	skipping := false
	for _, c := range raw {
		switch {
		case c == '\n':
			cleaned = append(cleaned, ',')
			atLineStart, skipping = true, false
		case skipping:
		case c == '#' && atLineStart:
			skipping = true
		default:
			cleaned = append(cleaned, c)
			atLineStart = false
		}
	}
	return ParseHosts(string(cleaned))
}

// reconcileHosts diffs the desired host set against the fleet's
// active TCP slots and applies the difference: AddHost for newcomers,
// Retire for leavers. Errors are joined (one bad host must not block
// the rest of the diff).
func (f *Fleet) reconcileHosts(hosts []Host) error {
	want := make(map[string]Host, len(hosts))
	for _, h := range hosts {
		want["tcp:"+h.Addr] = h
	}
	f.mu.Lock()
	var retire []string
	have := make(map[string]bool)
	for _, s := range f.slots {
		if s.retired || s.draining || len(s.name) < 4 || s.name[:4] != "tcp:" {
			continue
		}
		have[s.name] = true
		if _, ok := want[s.name]; !ok {
			retire = append(retire, s.name)
		}
	}
	f.mu.Unlock()
	var errs []error
	for name, h := range want {
		if !have[name] {
			if err := f.AddHost(h); err != nil {
				errs = append(errs, err)
			}
		}
	}
	for _, name := range retire {
		if err := f.Retire(name); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
