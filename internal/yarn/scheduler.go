package yarn

// Request is a pending container request tracked by the scheduler.
type Request struct {
	app  *Application
	spec ResourceSpec
	// count is the number of containers still wanted.
	count int
	// preferred restricts placement to the given node IDs until the
	// request has been passed over relaxAfter times (delay scheduling);
	// nil means any node.
	preferred map[int]bool
	// passedOver counts heartbeats where locality prevented placement.
	passedOver int
	relaxAfter int
	isAM       bool
}

// Assignment is one container-worth of a request placed on a node.
type Assignment struct {
	Req *Request
}

// FIFOScheduler is the ResourceManager's allocation policy: it serves
// requests strictly in arrival order, with delay scheduling for locality
// preferences. It is YARN's default scheduler and the one the paper's
// single-tenant Mode I/II deployments use. All methods run in kernel
// context on NodeManager heartbeats.
type FIFOScheduler struct {
	queue []*Request
}

// NewFIFOScheduler returns an empty FIFO scheduler.
func NewFIFOScheduler() *FIFOScheduler { return &FIFOScheduler{} }

// Add registers a request.
func (s *FIFOScheduler) Add(r *Request) { s.queue = append(s.queue, r) }

// RemoveApp drops all requests of an application.
func (s *FIFOScheduler) RemoveApp(appID int) {
	kept := s.queue[:0]
	for _, r := range s.queue {
		if r.app.ID != appID {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
}

// Pending returns the number of outstanding containers.
func (s *FIFOScheduler) Pending() int {
	n := 0
	for _, r := range s.queue {
		n += r.count
	}
	return n
}

// NodeUpdate offers a heartbeating node's free resources and returns the
// requests (one container each) to place there, having decremented their
// counts.
func (s *FIFOScheduler) NodeUpdate(nm *NodeManager) []Assignment {
	var out []Assignment
	free := nm.Free()
	for _, r := range s.queue {
		for r.count > 0 && nm.fits(r.spec, free) {
			if !r.placeable(nm) {
				r.passedOver++
				break
			}
			r.count--
			free = free.Sub(r.spec)
			out = append(out, Assignment{Req: r})
		}
		// FIFO head-of-line: a request that still fits but cannot be
		// placed here blocks later requests.
		if r.count > 0 && nm.fits(r.spec, free) {
			break
		}
	}
	s.compact()
	return out
}

func (s *FIFOScheduler) compact() {
	kept := s.queue[:0]
	for _, r := range s.queue {
		if r.count > 0 {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
}

// placeable applies delay scheduling: preferred-node requests wait for
// their nodes for relaxAfter passes, then accept any node.
func (r *Request) placeable(nm *NodeManager) bool {
	if len(r.preferred) == 0 {
		return true
	}
	if r.preferred[nm.Node().ID] {
		return true
	}
	return r.passedOver >= r.relaxAfter
}
