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

// RunLive drives one rung open loop on the wall clock: one goroutine per
// frontend runs Serve, with do as its service. It blocks until the
// offered window ends and every admitted op completes, then scores the
// rung. do is called concurrently for different frontends.
func RunLive(spec Spec, do func(frontend int, op Op) (hit bool, err error)) Rung {
	spec = spec.WithDefaults()
	rep := NewReport()
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	var wg sync.WaitGroup
	for f := 0; f < spec.Frontends; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rep.Serve(spec, f, now, time.Sleep, func(op Op) (bool, error) { return do(f, op) })
		}(f)
	}
	wg.Wait()
	return rep.Rung(spec)
}
