// The placement fabric: one coherent cluster snapshot shared by every
// placement decision — unit schedulers, autoscale policies, and the
// Pilot-Data co-scheduling signals — re-exported from internal/core.
// See the package documentation in doc.go for the overview.

package pilot

import (
	"repro/internal/core"
)

type (
	// ClusterView is the shared placement snapshot assembled by
	// UnitManager.ClusterView: per-pilot capacity, the waiting/running
	// demand split, attached data-store occupancy, and the input bytes
	// parked behind waiting units. Unit schedulers receive its live
	// pilot rows as Pick's candidates; autoscale policies the whole view
	// through AutoscaleSnapshot.View.
	ClusterView = core.ClusterView
	// PilotView is one pilot's slice of a ClusterView.
	PilotView = core.PilotView

	// DataAwarePolicy is the built-in autoscale policy that grows the
	// pilot holding the most bytes behind the pending units' Inputs —
	// capacity moves to the data. Configure one and pass it to
	// WithAutoscalePolicy.
	DataAwarePolicy = core.DataAwarePolicy
)

// AutoscaleDataAware is DataAwarePolicy's name, which labels its
// autoscale events and metrics.
const AutoscaleDataAware = core.AutoscaleDataAware
