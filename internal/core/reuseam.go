package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/yarn"
)

// persistentAM implements the paper's named future-work optimization:
// one long-running YARN application per pilot whose Application Master
// serves container requests for every unit, eliminating the per-unit
// application submission and AM startup from the critical path. Only the
// task-container allocation and launch remain per unit.
type persistentAM struct {
	reqs  *sim.Queue[*amRequest]
	ready *sim.Event
	app   *yarn.Application
}

// amWaitName names the process that reports one unit container's exit
// ("rp-am:wait:<pilot ID>") only when the name is read.
type amWaitName Pilot

func (n *amWaitName) String() string { return "rp-am:wait:" + n.ID }

type amRequest struct {
	spec yarn.ResourceSpec
	body yarn.ContainerBody
	done *sim.Event
	err  error
	exit int
}

// startPersistentAM submits the pilot-wide application and waits until
// its AM has registered.
func (b *yarnBackend) startPersistentAM(p *sim.Proc, bc *BackendContext) error {
	eng := bc.Session.Engine()
	pam := &persistentAM{
		reqs:  sim.NewQueue[*amRequest](eng),
		ready: sim.NewEvent(eng),
	}
	app, err := b.rm.Submit(p, yarn.AppDesc{
		Name:       "rp-am:" + bc.Pilot.ID,
		AMResource: yarn.ResourceSpec{MemoryMB: amOverhead.MemMB, VCores: amOverhead.Cores},
		Runner: func(ap *sim.Proc, am *yarn.AppMaster) {
			am.Register(ap)
			pam.ready.Trigger()
			for {
				req, ok := pam.reqs.GetTimeout(ap, bc.Profile.AgentPull)
				if !ok {
					if bc.Draining() {
						am.Unregister(ap, yarn.StatusSucceeded)
						return
					}
					continue
				}
				if err := am.RequestContainers(ap, req.spec, 1, nil); err != nil {
					req.err = err
					req.done.Trigger()
					continue
				}
				c := am.NextContainer(ap)
				if err := am.Launch(ap, c, req.body); err != nil {
					req.err = err
					req.done.Trigger()
					continue
				}
				// Completion is reported asynchronously so the AM can
				// serve the next unit while this one runs.
				eng.SpawnNamed((*amWaitName)(bc.Pilot), func(wp *sim.Proc) {
					wp.Wait(c.Done)
					req.exit = c.ExitCode
					req.done.Trigger()
				})
			}
		},
	})
	if err != nil {
		return err
	}
	pam.app = app
	b.pam = pam
	p.Wait(pam.ready)
	return nil
}

// run executes one unit through the persistent AM.
func (pam *persistentAM) run(p *sim.Proc, bc *BackendContext, u *Unit, body yarn.ContainerBody) error {
	req := &amRequest{
		spec: yarn.ResourceSpec{MemoryMB: u.Desc.MemoryMB, VCores: u.Desc.Cores},
		body: body,
		done: sim.NewEvent(bc.Session.Engine()),
	}
	pam.reqs.Put(req)
	p.Wait(req.done)
	if req.err != nil {
		return fmt.Errorf("core: unit %s via persistent AM: %w", u.ID, req.err)
	}
	if req.exit != 0 {
		return fmt.Errorf("core: unit %s container exited %d", u.ID, req.exit)
	}
	return nil
}
