package yarn

import (
	"strings"
	"testing"
)

// busyRM builds an RM with a running AM plus allocated containers.
func busyRM(t *testing.T) *RM {
	t.Helper()
	rm, net, _ := testRM(t, 4, Config{SlotsPerNode: 2})
	rm.Start()
	var am *App
	rm.Submit(net.Topology().Hosts()[0], func(a *App) { am = a })
	drainUntil(t, net.Engine(), func() bool { return am != nil })
	granted := 0
	am.RequestContainer(PriorityMap, nil, func(*Container) { granted++ })
	am.RequestContainer(PriorityMap, nil, func(*Container) { granted++ })
	drainUntil(t, net.Engine(), func() bool { return granted == 2 })
	return rm
}

// TestYarnVerifyInvariantsCatchesCorruption checks the slot-accounting
// and failure-detection invariants fire on corrupted RM state and stay
// silent on a healthy allocation.
func TestYarnVerifyInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(rm *RM)
		want    string // "" = healthy, must stay nil
	}{
		{
			name:    "healthy",
			corrupt: func(rm *RM) {},
		},
		{
			name:    "slot counter drift",
			corrupt: func(rm *RM) { rm.nms[0].used++ },
			want:    "containers",
		},
		{
			name: "dead node holding containers",
			corrupt: func(rm *RM) {
				for _, nm := range rm.nms {
					if nm.used > 0 {
						nm.dead = true
						return
					}
				}
				t.Fatal("no node holds a container")
			},
			want: "dead node",
		},
		{
			name: "crash detection missed past NM expiry",
			corrupt: func(rm *RM) {
				nm := rm.nms[0]
				nm.crashed = true
				// Backdate the crash so now is already past the expiry
				// deadline with no detection recorded.
				nm.crashedAt = rm.eng.Now() - 2*nmExpiry
			},
			want: "undetected",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rm := busyRM(t)
			if err := rm.VerifyInvariants(); err != nil {
				t.Fatalf("busy RM fails invariants: %v", err)
			}
			tc.corrupt(rm)
			err := rm.VerifyInvariants()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("healthy RM fails invariants: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("corruption %q went undetected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
