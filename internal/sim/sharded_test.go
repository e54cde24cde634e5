package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// mix64 is splitmix64: the synthetic workload derives every choice from
// (seed, event id) so the schedule is a pure function of the pod — never
// of goroutine interleaving or engine layout.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runSynthetic drives a randomized cross-pod event workload on the given
// layout and returns the concatenated per-pod logs plus the window and
// processed counters — everything that must be byte-identical across
// layouts and GOMAXPROCS.
func runSynthetic(t testing.TB, pods, engines int, seed uint64, lookahead Time, depth int) string {
	t.Helper()
	s, err := NewSharded(pods, engines, lookahead)
	if err != nil {
		t.Fatalf("NewSharded(%d, %d): %v", pods, engines, err)
	}
	logs := make([][]string, pods)
	var postErr error

	// body is one synthetic event: log, maybe spawn a local follow-up,
	// maybe post a continuation to another pod at >= lookahead delay.
	var body func(p int, id uint64, depth int) func()
	body = func(p int, id uint64, depth int) func() {
		return func() {
			eng := s.PodEngine(p)
			now := eng.Now()
			logs[p] = append(logs[p], fmt.Sprintf("p%d t%d id%x", p, now, id))
			if depth <= 0 {
				return
			}
			h := mix64(seed ^ id)
			if h%4 != 0 { // local follow-up
				if _, err := eng.At(now+Time(1+h%97), body(p, id*2+1, depth-1)); err != nil {
					t.Errorf("local At: %v", err)
				}
			}
			if pods > 1 && h%3 == 0 { // cross-pod continuation
				dst := (p + 1 + int((h>>8)%uint64(pods-1))) % pods
				at := now + lookahead + Time((h>>16)%127)
				if err := s.Post(p, dst, at, body(dst, id*2+2, depth-1)); err != nil && postErr == nil {
					postErr = err
				}
			}
		}
	}

	for p := 0; p < pods; p++ {
		for i := 0; i < 3; i++ {
			id := uint64(p)<<32 | uint64(i)
			at := Time(mix64(seed^id^0xabcd) % 200)
			if _, err := s.PodEngine(p).At(at, body(p, id, depth)); err != nil {
				t.Fatalf("seed event: %v", err)
			}
		}
	}

	end, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain(pods=%d engines=%d): %v", pods, engines, err)
	}
	if postErr != nil {
		t.Fatalf("Post(pods=%d engines=%d): %v", pods, engines, postErr)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "end=%d windows=%d processed=%d\n", end, s.Windows(), s.ProcessedTotal())
	for p := 0; p < pods; p++ {
		fmt.Fprintf(&b, "pod%d: %s\n", p, strings.Join(logs[p], " | "))
	}
	return b.String()
}

// TestShardedLockstep is the core determinism proof at the sim layer:
// the serial baseline (one engine) and the sharded layouts run on
// goroutines produce byte-identical event logs at several GOMAXPROCS
// settings.
func TestShardedLockstep(t *testing.T) {
	const pods, lookahead, depth = 8, 64, 5
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		ref := runSynthetic(t, pods, 1, seed, lookahead, depth)
		for _, engines := range []int{2, 4, 8} {
			for _, procs := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got := runSynthetic(t, pods, engines, seed, lookahead, depth)
				runtime.GOMAXPROCS(prev)
				if got != ref {
					t.Errorf("seed %d: parallel %d-engine log at GOMAXPROCS=%d diverged from baseline\nref:\n%s\ngot:\n%s",
						seed, engines, procs, ref, got)
				}
			}
		}
	}
}

func TestShardedValidation(t *testing.T) {
	if _, err := NewSharded(0, 1, 10); err == nil {
		t.Error("NewSharded(0 pods) succeeded")
	}
	if _, err := NewSharded(4, 0, 10); err == nil {
		t.Error("NewSharded(0 engines) succeeded")
	}
	if _, err := NewSharded(4, 5, 10); err == nil {
		t.Error("NewSharded(engines > pods) succeeded")
	}
	if _, err := NewSharded(4, 4, 0); err == nil {
		t.Error("NewSharded(zero lookahead) succeeded")
	}

	s, err := NewSharded(4, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pods() != 4 || s.Lookahead() != 10 {
		t.Fatalf("accessors: pods=%d lookahead=%v", s.Pods(), s.Lookahead())
	}
	if s.PodEngine(0) != s.PodEngine(2) || s.PodEngine(0) == s.PodEngine(1) {
		t.Error("pod->engine mapping is not round-robin")
	}
	if err := s.Post(-1, 0, 100, func() {}); err == nil {
		t.Error("Post from pod -1 succeeded")
	}
	if err := s.Post(0, 4, 100, func() {}); err == nil {
		t.Error("Post to pod 4 succeeded")
	}
	if err := s.Post(1, 1, 100, func() {}); err == nil {
		t.Error("Post to own pod succeeded")
	}
	if err := s.Post(0, 1, 100, nil); err == nil {
		t.Error("Post with nil fn succeeded")
	}
}

// TestShardedWindowGuard proves the boundary invariant is enforced: a
// post with delivery time inside the current window is rejected.
func TestShardedWindowGuard(t *testing.T) {
	s, err := NewSharded(2, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	var guardErr error
	if _, err := s.PodEngine(0).At(5, func() {
		// Delivery at now+1 is far below the window boundary (tmin+100).
		guardErr = s.Post(0, 1, s.PodEngine(0).Now()+1, func() {})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if guardErr == nil {
		t.Fatal("post inside window boundary was not rejected")
	}
}

// TestShardedBoundaryExact: a post landing exactly on the window
// boundary is legal and delivered in a later window.
func TestShardedBoundaryExact(t *testing.T) {
	s, err := NewSharded(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	delivered := Time(-1)
	if _, err := s.PodEngine(0).At(0, func() {
		if err := s.Post(0, 1, 10, func() { delivered = s.PodEngine(1).Now() }); err != nil {
			t.Errorf("boundary-exact post rejected: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered != 10 {
		t.Fatalf("boundary event delivered at %v, want 10", delivered)
	}
	if s.Windows() < 2 {
		t.Fatalf("boundary event ran in %d windows, want at least 2", s.Windows())
	}
}

func TestShardedDrainedWithWorkPending(t *testing.T) {
	s, err := NewSharded(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PodEngine(0).At(1, func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunWindows(func() bool { return false }); err == nil {
		t.Fatal("RunWindows with unsatisfiable done returned nil error")
	}
}

func TestShardedBarrierHook(t *testing.T) {
	s, err := NewSharded(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	s.SetBarrierHook(func() error {
		calls++
		if calls == 2 {
			return fmt.Errorf("hook says stop")
		}
		return nil
	})
	for p := 0; p < 2; p++ {
		p := p
		if _, err := s.PodEngine(p).At(1, func() {
			_, _ = s.PodEngine(p).At(s.PodEngine(p).Now()+20, func() {})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Drain(); err == nil || !strings.Contains(err.Error(), "hook says stop") {
		t.Fatalf("barrier hook error not propagated, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("hook ran %d times, want 2", calls)
	}
}

// FuzzShardWindowSync fuzzes pod counts, engine counts, lookahead sizes
// and boundary-straddling schedules, asserting the sharded parallel run
// reproduces the one-engine baseline byte for byte.
func FuzzShardWindowSync(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(2), uint16(10), uint8(3))
	f.Add(uint64(42), uint8(8), uint8(4), uint16(64), uint8(4))
	f.Add(uint64(7), uint8(5), uint8(5), uint16(1), uint8(2))
	f.Add(uint64(0xbeef), uint8(3), uint8(1), uint16(500), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, podsRaw, enginesRaw uint8, lookaheadRaw uint16, depthRaw uint8) {
		pods := 1 + int(podsRaw%9)
		engines := 1 + int(enginesRaw)%pods
		lookahead := Time(1 + lookaheadRaw%1000)
		depth := int(depthRaw % 5)
		ref := runSynthetic(t, pods, 1, seed, lookahead, depth)
		if got := runSynthetic(t, pods, engines, seed, lookahead, depth); got != ref {
			t.Fatalf("pods=%d engines=%d lookahead=%v depth=%d: parallel run diverged\nref:\n%s\ngot:\n%s",
				pods, engines, lookahead, depth, ref, got)
		}
	})
}
