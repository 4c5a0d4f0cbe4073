package chaos

import (
	"time"

	"mirage/internal/netsim"
	"mirage/internal/transport"
	"mirage/internal/wire"
)

// WrapNetwork installs the injector as net's fault hook for the
// simulator. now supplies the current virtual time (the simulation
// kernel's clock). Payloads that are not *wire.Msg (the IVY baseline's
// messages) match only kind-wildcard rules.
func WrapNetwork(net *netsim.Network, in *Injector, now func() time.Duration) {
	net.Inject = func(m netsim.Message) netsim.Fault {
		kind := wire.KInvalid
		if wm, ok := m.Payload.(*wire.Msg); ok {
			kind = wm.Kind
		}
		a := in.Apply(now(), int(m.From), int(m.To), kind)
		return netsim.Fault{Drop: a.Drop, Dup: a.Dup, Delay: a.Delay}
	}
}

// FaultyTransport wraps a live transport.Transport with the injector:
// the same plans that drive the simulator harass a real mesh. Delayed
// and duplicated copies are resent from timer goroutines, so delivery
// order across them is whatever the race produces — live mode needs
// the reliability layer for any FIFO guarantee under chaos.
type FaultyTransport struct {
	inner transport.Transport
	in    *Injector
	site  int
	now   func() time.Duration
}

// WrapTransport builds a FaultyTransport for one site. now supplies
// the cluster's monotonic clock so crash/partition windows line up
// across sites.
func WrapTransport(inner transport.Transport, in *Injector, site int, now func() time.Duration) *FaultyTransport {
	return &FaultyTransport{inner: inner, in: in, site: site, now: now}
}

// Send implements transport.Transport. A site's messages to itself
// never come here (the live node keeps them), so every message is
// subject to the plan.
func (f *FaultyTransport) Send(to int, m *wire.Msg) error {
	a := f.in.Apply(f.now(), f.site, to, m.Kind)
	if a.Drop {
		return nil
	}
	for i := 0; i <= a.Dup; i++ {
		if a.Delay > 0 {
			time.AfterFunc(a.Delay, func() { _ = f.inner.Send(to, m) })
			continue
		}
		if err := f.inner.Send(to, m); err != nil {
			return err
		}
	}
	return nil
}

// Close implements transport.Transport.
func (f *FaultyTransport) Close() error { return f.inner.Close() }
