package sim

import "dnslb/internal/simcore"

// faultInjector schedules crash/recovery events that flip the
// scheduler's liveness view at their virtual times, at the crashed
// server's authority replica (i mod R) — the replica its reports
// reach; the other replicas learn Down from gossip. A crash also
// retracts the server's alarm (a dead server signals nothing; the
// retraction is not an alarm signal, so it does not count); what the
// DNS cannot retract are the cached mappings still pointing at it.
//
// With a Detection model attached the injector splits each event in
// two: the server's ground truth (what clients experience, held in
// actual) flips at the event time, while the scheduler's Down flag
// follows after the detector's delay. A generation counter per server
// cancels a scheduled flip when a newer fault event supersedes it
// (e.g. the server recovers before the crash was ever detected).
type faultInjector struct {
	sim      *simcore.Simulator
	replicas []*replica
	recov    *drainTracker
	fail     func(error)

	// Detection-model state; all nil/unused under instant knowledge.
	detect *DetectionConfig
	actual []bool // which servers are really down, shared with the sink
	stream *simcore.Stream
	gen    []uint64

	downDelaySum float64
	downDetects  uint64
	upDelaySum   float64
	upDetects    uint64
}

func (f *faultInjector) install(events []FaultEvent) {
	for _, ev := range events {
		f.sim.ScheduleAt(ev.Time, func() { f.fire(ev) })
	}
}

// fire handles one fault event at its time. Under instant knowledge
// the scheduler's view flips at once. Under the detection model ground
// truth flips now and the scheduler follows after the detector delay,
// one phase draw per event. Time-to-drain follows the first flip:
// traffic can return to a recovered server through cached mappings
// before the scheduler re-admits it.
func (f *faultInjector) fire(ev FaultEvent) {
	if f.detect == nil {
		if !f.apply(ev) {
			return
		}
	} else {
		if f.actual[ev.Server] == ev.Down {
			return
		}
		f.actual[ev.Server] = ev.Down
		f.gen[ev.Server]++
		gen := f.gen[ev.Server]
		delay := f.detect.delay(ev.Down, f.stream.Float64())
		f.sim.Schedule(delay, func() {
			if f.gen[ev.Server] != gen || !f.apply(ev) {
				return // superseded by a newer fault event, or already applied
			}
			if ev.Down {
				f.downDelaySum += delay
				f.downDetects++
			} else {
				f.upDelaySum += delay
				f.upDetects++
			}
		})
	}
	if ev.Down {
		f.recov.crashed(ev.Server)
	} else {
		f.recov.recovered(ev.Server, f.sim.Now())
	}
}

// apply flips the scheduler's view of the event's server, retracting
// the alarm of a crashed one, and reports whether the view changed.
func (f *faultInjector) apply(ev FaultEvent) bool {
	rep := authority(f.replicas, ev.Server)
	sn := rep.state.Snapshot()
	if sn.Down(ev.Server) == ev.Down {
		return false
	}
	if err := rep.eng.SetDown(ev.Server, ev.Down); err != nil {
		f.fail(err)
		return false
	}
	if ev.Down && sn.Alarmed(ev.Server) {
		if err := rep.eng.SetAlarm(ev.Server, false); err != nil {
			f.fail(err)
		}
	}
	return true
}

// drainInjector schedules graceful server retirements: at its event
// time the server leaves the scheduler's eligible set but stays a
// member — its pre-drain cached mappings keep sending traffic until
// the engine's drain deadline. Only then does the slot leave
// membership. The engine's Drain and Retire own the rule; the live
// DRAIN path (internal/dnsserver) runs the same two calls on a wall
// clock. Both run at the server's authority replica (i mod R), whose
// drain deadline covers the peers' mappings as their ledger windows
// arrive by gossip; the peers learn Draining the same way.
type drainInjector struct {
	sim      *simcore.Simulator
	replicas []*replica
	fail     func(error)
}

func (dr *drainInjector) install(events []DrainEvent) {
	for _, ev := range events {
		dr.sim.ScheduleAt(ev.Time, func() {
			rep := authority(dr.replicas, ev.Server)
			if sn := rep.state.Snapshot(); sn.Draining(ev.Server) || !sn.Member(ev.Server) {
				return
			}
			deadline, err := rep.eng.Drain(ev.Server)
			if err != nil {
				dr.fail(err)
				return
			}
			dr.retireAt(ev.Server, deadline)
		})
	}
}

// retireAt retires server i at the given deadline, or again at the
// later one Retire names when a mapping moved the window.
func (dr *drainInjector) retireAt(i int, deadline float64) {
	dr.sim.ScheduleAt(deadline, func() {
		if later, err := authority(dr.replicas, i).eng.Retire(i); err != nil {
			dr.fail(err)
		} else if later > 0 {
			dr.retireAt(i, later)
		}
	})
}
