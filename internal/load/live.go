package load

import (
	"errors"
	"sync"
	"time"

	"mirage/internal/app"
)

// Execute applies one generated op to a store frontend and folds the
// outcome into (hit, err) for the report: a miss on Get/Delete is a
// valid outcome, not an error, and a CAS of an absent key becomes a
// compare-and-create. A lost CAS race reports hit (the key exists) with
// no error — the conflict is attributed by the store's own counters —
// and a CAS whose key is deleted between its Get and its swap reports
// a miss, as the Get would have.
func Execute(st *app.Store, spec Spec, op Op) (hit bool, err error) {
	spec = spec.WithDefaults()
	key := KeyBytes(op.Key)
	switch op.Kind {
	case OpGet:
		_, err := st.Get(key)
		if errors.Is(err, app.ErrNoKey) {
			return false, nil
		}
		return err == nil, err
	case OpPut:
		return false, st.Put(key, ValBytes(op.Key, spec.ValBytes))
	case OpDelete:
		err := st.Delete(key)
		if errors.Is(err, app.ErrNoKey) {
			return false, nil
		}
		return err == nil, err
	default: // OpCAS
		cur, err := st.Get(key)
		if errors.Is(err, app.ErrNoKey) {
			_, err := st.CAS(key, nil, ValBytes(op.Key, spec.ValBytes))
			return false, err
		}
		if err != nil {
			return false, err
		}
		_, err = st.CAS(key, cur, ValBytes(op.Key, spec.ValBytes))
		if errors.Is(err, app.ErrNoKey) {
			return false, nil
		}
		return true, err
	}
}

// RunLive drives one rung open loop on the wall clock: per frontend, a
// dispatcher goroutine releases ops at their scheduled Poisson arrival
// times into a bounded queue (cap Spec.QueueCap; a full queue sheds),
// and Spec.Workers goroutines drain it through do. It blocks until the
// offered window ends and every admitted op completes, then scores the
// rung. do is called concurrently; latency is charged from each op's
// scheduled arrival.
func RunLive(spec Spec, do func(frontend int, op Op) (hit bool, err error)) Rung {
	spec = spec.WithDefaults()
	rep := NewReport()
	start := time.Now()
	var wg sync.WaitGroup
	for f := 0; f < spec.Frontends; f++ {
		q := make(chan Op, spec.QueueCap)
		for w := 0; w < spec.Workers; w++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for op := range q {
					hit, err := do(f, op)
					rep.Done(time.Since(start)-op.T, hit, err)
				}
			}(f)
		}
		wg.Add(1)
		go func(f int, q chan Op) {
			defer wg.Done()
			defer close(q)
			g := NewGen(spec, f)
			for {
				op, ok := g.Next()
				if !ok {
					return
				}
				if d := op.T - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				select {
				case q <- op:
					rep.Admit()
					rep.ObserveQueue(len(q))
				default:
					rep.Shed()
				}
			}
		}(f, q)
	}
	wg.Wait()
	return rep.Rung(spec)
}
