package jobs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestSubmitIdempotencyKeyDedupes pins the double-submit fix: a resend
// with the same idempotency key answers the originally accepted job
// instead of minting a duplicate, and the runner runs once.
func TestSubmitIdempotencyKeyDedupes(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	first, err := m.Submit(rawJob(json.RawMessage(`{"a":1}`), 1), "key-1", "")
	if err != nil {
		t.Fatal(err)
	}
	dup, err := m.Submit(rawJob(json.RawMessage(`{"a":1}`), 1), "key-1", "")
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate submit minted a new job: %s vs %s", dup.ID, first.ID)
	}
	other, err := m.Submit(rawJob(json.RawMessage(`{"a":2}`), 1), "key-2", "")
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == first.ID {
		t.Fatal("distinct keys shared a job")
	}
	waitState(t, m, first.ID, StateDone)
	waitState(t, m, other.ID, StateDone)
	if n := r.calls.Load(); n != 2 {
		t.Fatalf("runner ran %d times, want 2", n)
	}
	// The dedupe holds even against a settled job: the retried POST may
	// arrive after the job finished.
	late, err := m.Submit(rawJob(json.RawMessage(`{"a":1}`), 1), "key-1", "")
	if err != nil {
		t.Fatal(err)
	}
	if late.ID != first.ID {
		t.Fatal("post-settle resend minted a new job")
	}
}

// TestSubmitIdempotencyConcurrent hammers one key from many
// goroutines under -race: exactly one job may exist afterwards.
func TestSubmitIdempotencyConcurrent(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run, MaxQueued: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const goroutines = 16
	ids := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := m.Submit(rawJob(json.RawMessage(`{}`), 1), "shared", "")
			if err == nil {
				ids[i] = st.ID
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("goroutine %d got job %s, goroutine 0 got %s", i, ids[i], ids[0])
		}
	}
}

// TestIdempotencyKeySurvivesReplay: the key is journaled with the
// accept record, so a resend after a daemon restart still dedupes.
func TestIdempotencyKeySurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	r := &echoRunner{gate: gate}
	m, err := Open(Config{Runner: r.run, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(rawJob(json.RawMessage(`{"x":1}`), 1), "replay-key", "")
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // job still queued/running: accept record has no terminal

	r2 := &echoRunner{}
	m2, err := Open(Config{Runner: r2.run, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	dup, err := m2.Submit(rawJob(json.RawMessage(`{"x":1}`), 1), "replay-key", "")
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != st.ID {
		t.Fatalf("resend after replay minted job %s, want the journaled %s", dup.ID, st.ID)
	}
}

// TestWatchDeliversTransitionsAndProgress subscribes before the job
// runs and asserts the pushed snapshots: queued -> running with
// progress advances -> terminal with result, then channel close.
func TestWatchDeliversTransitionsAndProgress(t *testing.T) {
	release := make(chan struct{})
	m, err := Open(Config{Runner: func(ctx context.Context, req any) (json.RawMessage, error) {
		<-release
		report := Progress(ctx)
		report(1)
		report(2)
		return req.(json.RawMessage), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(rawJob(json.RawMessage(`"p"`), 2), "", "")
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	close(release)

	var got []Status
	deadline := time.After(5 * time.Second)
	for {
		select {
		case s, open := <-ch:
			if !open {
				t.Fatalf("channel closed before terminal; got %+v", got)
			}
			got = append(got, s)
			if s.State.Terminal() {
				if s.State != StateDone || string(s.Result) != `"p"` {
					t.Fatalf("terminal event: %+v", s)
				}
				// Progress must have been pushed mid-run, not only at
				// the end.
				seen := false
				for _, g := range got {
					if g.State == StateRunning && g.Done == 1 {
						seen = true
					}
				}
				if !seen {
					t.Fatalf("no mid-run progress event in %+v", got)
				}
				// After the terminal event the channel closes.
				if _, open := <-ch; open {
					t.Fatal("channel stayed open after terminal event")
				}
				return
			}
		case <-deadline:
			t.Fatalf("no terminal event; got %+v", got)
		}
	}
}

// TestWatchTerminalJobAnswersImmediately: watching a settled job
// yields one terminal snapshot (with result) and a closed channel —
// no waiting.
func TestWatchTerminalJobAnswersImmediately(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(rawJob(json.RawMessage(`1`), 1), "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	ch, cancel, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	select {
	case s := <-ch:
		if !s.State.Terminal() || s.Result == nil {
			t.Fatalf("snapshot of settled job: %+v", s)
		}
	case <-time.After(time.Second):
		t.Fatal("no snapshot for settled job")
	}
	if _, open := <-ch; open {
		t.Fatal("channel stayed open after terminal snapshot")
	}
}

// TestWatchUnknownJob errors with ErrNotFound.
func TestWatchUnknownJob(t *testing.T) {
	m, err := Open(Config{Runner: (&echoRunner{}).run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Watch("nope"); err == nil {
		t.Fatal("watching an unknown job succeeded")
	}
}

// TestWatchCancelStopsDelivery: a cancelled watcher's channel closes
// and later notifications don't block the manager.
func TestWatchCancelStopsDelivery(t *testing.T) {
	gate := make(chan struct{})
	r := &echoRunner{gate: gate}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(rawJob(json.RawMessage(`1`), 1), "", "")
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	cancel() // idempotent
	close(gate)
	waitState(t, m, st.ID, StateDone)
	// Drain: the channel must be closed, not leaking live snapshots
	// forever.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, open := <-ch:
			if !open {
				return
			}
		case <-deadline:
			t.Fatal("cancelled watcher channel never closed")
		}
	}
}
