package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"discovery/internal/analysis"
)

// flaky is a Store double whose operations fail with a transient error
// until fail reaches zero; afterwards they delegate to the wrapped store.
type flaky struct {
	Store
	mu    sync.Mutex
	fail  int
	calls int
}

func (f *flaky) step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.fail > 0 {
		f.fail--
		return analysis.Errorf(analysis.StageStore, analysis.Transient, "flaky backend")
	}
	return nil
}

func (f *flaky) Get(key string) (*Entry, bool, error) {
	if err := f.step(); err != nil {
		return nil, false, err
	}
	return f.Store.Get(key)
}

func (f *flaky) Put(e *Entry) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.Store.Put(e)
}

func (f *flaky) Len() (int, error) {
	if err := f.step(); err != nil {
		return 0, err
	}
	return f.Store.Len()
}

func noSleep(time.Duration) {}

func TestRetryRecoversTransientFailures(t *testing.T) {
	inner := &flaky{Store: NewMemory(), fail: 2}
	var seen []string
	r := NewRetry(inner, RetryConfig{
		Attempts: 3,
		Sleep:    noSleep,
		OnRetry:  func(op string, attempt int, err error) { seen = append(seen, fmt.Sprintf("%s/%d", op, attempt)) },
	})
	if err := r.Put(&Entry{Key: "res-a-b"}); err != nil {
		t.Fatalf("put through two transient failures: %v", err)
	}
	if got, want := fmt.Sprint(seen), "[put/1 put/2]"; got != want {
		t.Errorf("OnRetry saw %v, want %v", seen, want)
	}
	if r.Retries() != 2 {
		t.Errorf("Retries() = %d, want 2", r.Retries())
	}
	if _, ok, err := r.Get("res-a-b"); err != nil || !ok {
		t.Fatalf("get after recovered put: ok=%v err=%v", ok, err)
	}
}

func TestRetryGivesUpAfterAttempts(t *testing.T) {
	inner := &flaky{Store: NewMemory(), fail: 100}
	r := NewRetry(inner, RetryConfig{Attempts: 3, Sleep: noSleep})
	if err := r.Put(&Entry{Key: "res-a-b"}); !errors.Is(err, analysis.ErrTransient) {
		t.Fatalf("exhausted retries returned %v, want the transient backend error", err)
	}
	if inner.calls != 3 {
		t.Errorf("backend saw %d calls, want 3", inner.calls)
	}
}

func TestRetryDoesNotRetryPermanentErrors(t *testing.T) {
	inner := &flaky{Store: NewMemory()}
	r := NewRetry(inner, RetryConfig{Attempts: 5, Sleep: noSleep})
	if err := r.Put(&Entry{Key: "no spaces allowed"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("invalid key returned %v, want ErrInvalid", err)
	}
	if r.Retries() != 0 {
		t.Errorf("permanent error was retried %d times", r.Retries())
	}

	closed := NewMemory()
	closed.Close()
	r2 := NewRetry(closed, RetryConfig{Attempts: 5, Sleep: noSleep})
	if _, _, err := r2.Get("res-a-b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed store returned %v, want ErrClosed", err)
	}
	if r2.Retries() != 0 {
		t.Errorf("ErrClosed was retried %d times", r2.Retries())
	}
}

func TestRetryJitterDeterministic(t *testing.T) {
	// Two fresh Retry stores over the same failure pattern sleep the same
	// schedule: the jitter stream has a fixed seed.
	schedule := func() []time.Duration {
		var slept []time.Duration
		r := NewRetry(&flaky{Store: NewMemory(), fail: 100}, RetryConfig{
			Attempts:  4,
			BaseDelay: 100 * time.Millisecond,
			Sleep:     func(d time.Duration) { slept = append(slept, d) },
		})
		for i := 0; i < 3; i++ {
			r.Get("res-a-b")
		}
		return slept
	}
	a, b := schedule(), schedule()
	if len(a) != 9 {
		t.Fatalf("slept %d times, want 9 (3 ops × 3 retries)", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("fresh Retry stores diverged:\n%v\n%v", a, b)
	}
	for i, d := range a {
		base := 100 * time.Millisecond << (i % 3)
		if d < base/2 || d >= base {
			t.Fatalf("sleep %d = %v outside [%v, %v)", i, d, base/2, base)
		}
	}
}

func TestRetryCapsBackoff(t *testing.T) {
	var slept []time.Duration
	r := NewRetry(&flaky{Store: NewMemory(), fail: 100}, RetryConfig{
		Attempts:  10,
		BaseDelay: time.Millisecond,
		Sleep:     func(d time.Duration) { slept = append(slept, d) },
	})
	r.Put(&Entry{Key: "res-a-b"})
	// Delays double from 1ms: 1, 2, 4, ..., 32, then cap at 50ms.
	for i, d := range slept {
		if d >= 50*time.Millisecond {
			t.Fatalf("sleep %d = %v, not below the 50×BaseDelay cap", i, d)
		}
	}
	if last := slept[len(slept)-1]; last < 25*time.Millisecond {
		t.Fatalf("last sleep %v, want the capped [25ms, 50ms)", last)
	}
}

func TestDiskGetQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for name, contents := range map[string]string{
		"res-torn-1.json":  `{"key":"res-torn-1","re`, // truncated mid-write
		"res-empty-2.json": "",                        // zero-length (crash before any byte)
		"res-alien-3.json": `{"key":"res-other"}`,     // parses, wrong identity
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
		key := name[:len(name)-len(".json")]
		if e, ok, err := d.Get(key); ok || err != nil {
			t.Fatalf("corrupt entry %s served: e=%+v ok=%v err=%v", key, e, ok, err)
		}
	}
	if q := d.Quarantined(); q != 3 {
		t.Errorf("Quarantined() = %d, want 3", q)
	}
	if n, err := d.Len(); err != nil || n != 0 {
		t.Errorf("Len after quarantine: %d %v", n, err)
	}
	// The key is writable again after its corrupt file moved aside.
	if err := d.Put(&Entry{Key: "res-torn-1", Patterns: 4}); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := d.Get("res-torn-1"); !ok || got.Patterns != 4 {
		t.Fatalf("rewrite after quarantine: ok=%v got=%+v", ok, got)
	}
}

func TestDiskStartupScanRecoversCrashDebris(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(&Entry{Key: "res-good-1", Patterns: 9}); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// A crash mid-Put: a stale temp file plus a torn final entry.
	os.WriteFile(filepath.Join(dir, ".tmp-999-1"), []byte(`{"key":"res`), 0o644)
	os.WriteFile(filepath.Join(dir, "res-torn-2.json"), []byte(`{"key":"res-torn-2","repo`), 0o644)

	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatalf("reopening a damaged store must not fail: %v", err)
	}
	defer d2.Close()
	if q := d2.Quarantined(); q != 1 {
		t.Errorf("startup scan quarantined %d entries, want 1", q)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-999-1")); !os.IsNotExist(err) {
		t.Error("stale temp file survived the startup scan")
	}
	if got, ok, err := d2.Get("res-good-1"); err != nil || !ok || got.Patterns != 9 {
		t.Fatalf("healthy entry lost in recovery: ok=%v err=%v", ok, err)
	}
	if _, ok, err := d2.Get("res-torn-2"); ok || err != nil {
		t.Fatalf("torn entry served after recovery: ok=%v err=%v", ok, err)
	}
	if n, _ := d2.Len(); n != 1 {
		t.Errorf("Len after recovery = %d, want 1", n)
	}
}

func TestResilientChainEndToEnd(t *testing.T) {
	// The production stack is Retry over the disk store. A failure burst
	// longer than the retry budget surfaces as an error — a miss to the
	// caller, which recomputes — and the same Retry serves again once the
	// backend heals, with nothing from the outage window to reconcile.
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	inner := &flaky{Store: disk, fail: 100}
	r := NewRetry(inner, RetryConfig{Attempts: 2, Sleep: noSleep})

	if err := r.Put(&Entry{Key: "res-a-b", Patterns: 3}); !errors.Is(err, analysis.ErrTransient) {
		t.Fatalf("put during outage returned %v, want the transient backend error", err)
	}
	if _, ok, err := r.Get("res-a-b"); err == nil || ok {
		t.Fatalf("get during outage: ok=%v err=%v, want an error", ok, err)
	}
	if r.Retries() != 2 || inner.calls != 4 {
		t.Fatalf("outage accounting: retries %d backend calls %d, want 2 and 4", r.Retries(), inner.calls)
	}

	// The backend heals: the lost put is recomputed and lands durably.
	inner.mu.Lock()
	inner.fail = 0
	inner.mu.Unlock()
	if _, ok, err := r.Get("res-a-b"); err != nil || ok {
		t.Fatalf("get after heal: ok=%v err=%v, want a clean miss", ok, err)
	}
	if err := r.Put(&Entry{Key: "res-a-b", Patterns: 3}); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := r.Get("res-a-b"); err != nil || !ok || got.Patterns != 3 {
		t.Fatalf("get after recompute: ok=%v err=%v got=%+v", ok, err, got)
	}
	if n, err := r.Len(); err != nil || n != 1 {
		t.Fatalf("len after heal: n=%d err=%v", n, err)
	}
}
