package serve

import "fmt"

// RunScan is the driver loop as it was before the next-instance index: every
// turn scans the whole fleet for the busy instance with the smallest clock.
// It is kept verbatim, apart from its comments and the delivery re-key it
// leaves out, as the reference Run must match event for event (see
// reference_equiv_test.go). The index that start builds, dispatchHeld and
// tickHooks keep current is never read here.
func (s *Server) RunScan(src Source) (*Result, error) {
	if err := s.start(src); err != nil {
		return nil, err
	}
	total := 0
	for {
		busy := scanNext(s.insts)
		evTime := 0.0
		evInternal := false
		evReady := false
		if t, ok := src.Peek(); ok {
			evTime, evReady = t, true
		}
		if d, ok := s.queue.peek(); ok && (!evReady || d.ready < evTime) {
			evTime, evInternal, evReady = d.ready, true, true
		}
		if evReady && (busy == nil || evTime <= busy.clock) {
			if evInternal {
				d := s.queue.pop()
				d.deliver()
				if d.mig != nil && s.tracking {
					s.bumpNow(d.ready)
					s.emit(RequestMigrated{
						EventMeta: s.meta(d.ready), Req: d.mig.Req,
						From: d.mig.From, To: d.mig.To,
						Depart: d.mig.Depart, Bytes: d.mig.Bytes,
					})
				}
				if err := s.dispatchHeld(d.ready); err != nil {
					return nil, err
				}
				continue
			}
			r := src.Pop()
			if ac := s.opts.Adaptive; ac != nil {
				dec, reason := ac.Decide(r)
				if dec == AdmissionReject {
					s.noteRejected(r, reason)
					continue
				}
				if dec == AdmissionDegrade {
					s.noteDegraded(r, reason)
				}
			}
			s.held = append(s.held, r)
			if err := s.dispatchHeld(r.ArrivalTime); err != nil {
				return nil, err
			}
			continue
		}
		if busy == nil {
			break
		}
		st := busy.sys.Iterate(busy.clock)
		if st.Idle {
			s.noteIteration(busy)
			s.tickHooks()
			if !busy.hasWork() {
				continue
			}
			parkAt := -1.0
			if t, ok := src.Peek(); ok {
				parkAt = t
			}
			if d, ok := s.queue.peek(); ok && (parkAt < 0 || d.ready < parkAt) {
				parkAt = d.ready
			}
			if parkAt >= 0 {
				busy.BumpClock(parkAt)
				continue
			}
			p := busy.sys.Pool()
			return nil, fmt.Errorf("serve: instance %d (%s) deadlocked at t=%.3fs with %d waiting / %d running",
				busy.id, busy.sys.Name(), busy.clock, p.NumWaiting(), p.NumRunning())
		}
		if st.Elapsed <= 0 {
			return nil, fmt.Errorf("serve: instance %d (%s) reported non-positive elapsed %g",
				busy.id, busy.sys.Name(), st.Elapsed)
		}
		if busy.stepScale > 0 && busy.stepScale != 1 {
			st.Elapsed *= busy.stepScale
		}
		busy.clock += st.Elapsed
		busy.iterations++
		total++
		busy.breakdown.Scheduling += st.SchedCPU
		busy.breakdown.Speculation += st.SpecTime
		busy.breakdown.Verification += st.VerifyTime
		busy.breakdown.Prefill += st.PrefillTime
		if err := s.backend.AfterIterate(busy, &s.queue); err != nil {
			return nil, err
		}
		s.noteIteration(busy)
		s.tickHooks()
		if busy.clock > s.maxSimTime {
			return nil, fmt.Errorf("serve: instance %d (%s) exceeded max simulated time %.0fs",
				busy.id, busy.sys.Name(), s.maxSimTime)
		}
		if total > s.maxIterations {
			return nil, fmt.Errorf("serve: exceeded max iterations %d", s.maxIterations)
		}
	}
	return s.finish(total), nil
}

// scanNext is the fleet scan the index replaced: the instance with work and
// the smallest clock, lowest ID on ties.
func scanNext(insts []*Instance) *Instance {
	var busy *Instance
	for _, in := range insts {
		if in.hasWork() && (busy == nil || in.clock < busy.clock) {
			busy = in
		}
	}
	return busy
}
