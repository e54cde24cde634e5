package workload

import "keddah/internal/hadoop/mapreduce"

// EstimatePeakFlows predicts the peak number of concurrent network flows
// a capture session over the given (sequentially executed) workload runs
// can hold, from the profiles' traffic character and the cluster's task
// concurrency. The estimate intentionally rounds up: it pre-sizes the
// network's flow storage (Network.Reserve) so the steady-state capture
// loop never grows a slab mid-run, and overshooting costs only a few
// hundred bytes per slot.
//
// Per occupied task slot the flow fan-out is bounded by the larger of the
// HDFS pipeline depth (a map or reduce commit drives `replication`
// hop-flows; ingest does the same) and the reducer's parallel shuffle
// fetches. On top sit the cluster-wide heartbeat flows (YARN node
// managers and HDFS datanodes each keep roughly one in flight per worker)
// plus fixed headroom for control traffic.
//
// slotsPerNode and replication are the values in force, defaults
// already filled. workers is one pod's worker count. When pods > 1 the
// estimate sizes one pod of a multi-pod capture and adds headroom for
// the ring copies through the pod's gateway: a pod holds at most its own
// copy's egress leg and its predecessor's ingress leg. The headroom,
// 2·(pods−1) + 8, covers that at every pod count; it sizes memory, not
// traffic, so it is kept as it stands rather than tightened.
func EstimatePeakFlows(specs []RunSpec, workers, slotsPerNode, replication, pods int) int {
	if workers <= 0 {
		workers = 1
	}
	slots := workers * slotsPerNode

	perSlot := replication
	for _, rs := range specs {
		p, err := Get(rs.Profile)
		if err != nil {
			continue
		}
		if !p.MapOnly && mapreduce.MaxParallelFetches > perSlot {
			perSlot = mapreduce.MaxParallelFetches
		}
		if p.OutputReplication > perSlot {
			perSlot = p.OutputReplication
		}
	}
	if perSlot < 2 {
		perSlot = 2
	}
	est := slots*perSlot + 2*workers + 16
	if pods > 1 {
		est += 2*(pods-1) + 8
	}
	return est
}
