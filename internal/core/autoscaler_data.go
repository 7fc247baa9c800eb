package core

// AutoscaleDataAware names the data-aware policy, DataAwarePolicy:
// capacity grows where the data already is. It reads the shared
// ClusterView to find the pilot whose attached data store holds the
// most bytes behind the waiting units' Inputs, and grows its own pilot
// only when it is that one — the Pilot-Data analogue of the co-locate
// unit scheduler, one level up: instead of moving compute to data at
// bind time, it moves *capacity* to data at resize time. With per-pilot
// autoscalers sharing one machine, the pilots holding cold stores hold
// their allocation instead of racing the hot pilot for free nodes.
const AutoscaleDataAware = "data-aware"

// DataAwarePolicy grows the pilot holding the most bytes behind the
// pending units' Inputs rather than the least-loaded one. Backlog
// gating and the shrink-when-idle behaviour are QueueDepthPolicy's, so
// on workloads without data (or on managers without data pilots) the
// policy degrades to exactly queue-depth.
type DataAwarePolicy struct {
	// Threshold is waiting units per live core above which the policy
	// considers growing (default 1.0).
	Threshold float64
	// GrowStep is the number of nodes added per decision (default 1).
	GrowStep int
}

// Name implements AutoscalePolicy.
func (*DataAwarePolicy) Name() string { return AutoscaleDataAware }

// Decide implements AutoscalePolicy.
func (p *DataAwarePolicy) Decide(s *AutoscaleSnapshot) int {
	delta := backlogDelta(s, p.Threshold, p.GrowStep)
	if delta > 0 && s.View != nil {
		if hot := s.View.HottestDataPilot(); hot != nil && hot.Pilot != s.Pilot {
			// Another pilot holds the data behind the backlog: hold this
			// one's size and leave the free nodes to the hot pilot's
			// autoscaler.
			return 0
		}
	}
	return delta
}
