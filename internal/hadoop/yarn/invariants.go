package yarn

import "fmt"

// VerifyInvariants checks the resource layer's slot accounting and
// failure-detection deadlines. It is strictly read-only: no flows, no
// events, no randomness.
//
// Checked properties:
//   - Per NodeManager: the used-slot counter equals the number of held
//     containers and stays within [0, SlotsPerNode].
//   - A node declared lost holds no containers and no slots.
//   - A crashed node is declared lost no later than nmExpiry after the
//     crash (heartbeat-expiry detection cannot be missed).
//   - Cluster-wide, containers on live nodes never exceed TotalSlots.
func (rm *RM) VerifyInvariants() error {
	now := rm.eng.Now()
	total := 0
	for _, nm := range rm.nms {
		if nm.used != len(nm.containers) {
			return fmt.Errorf("yarn: node %d used=%d but holds %d containers", nm.host, nm.used, len(nm.containers))
		}
		if nm.used < 0 || nm.used > rm.cfg.SlotsPerNode {
			return fmt.Errorf("yarn: node %d used=%d outside [0, %d]", nm.host, nm.used, rm.cfg.SlotsPerNode)
		}
		if nm.dead && nm.used != 0 {
			return fmt.Errorf("yarn: dead node %d still holds %d containers", nm.host, nm.used)
		}
		if nm.crashed && !nm.dead && now > nm.crashedAt+nmExpiry {
			return fmt.Errorf("yarn: node %d crashed at t=%dns, undetected at t=%dns (nmExpiry %dns)",
				nm.host, nm.crashedAt, now, nmExpiry)
		}
		if !nm.dead {
			total += nm.used
		}
	}
	if slots := rm.TotalSlots(); total > slots {
		return fmt.Errorf("yarn: %d containers on live nodes exceed %d cluster slots", total, slots)
	}
	return nil
}
