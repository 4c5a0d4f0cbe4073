package transport

import (
	"fmt"
	"sync/atomic"

	"mirage/internal/wire"
)

// InprocMesh connects n sites within one process. It has no queue and
// no goroutine of its own: Send calls the receiving site's handler on
// the sender's goroutine, so a message costs whatever the handler costs
// — for a live node at an idle site, the receiver's protocol step — and
// is delivered when Send returns. The handler contract (see
// Handler) is what makes that safe — it may be called from any number
// of senders at once and never blocks — and per-sender order holds
// because a sender's Sends return in the order it made them.
type InprocMesh struct {
	handlers []Handler
	closed   atomic.Bool
}

// NewInprocMesh creates the mesh; the handler for site i receives every
// message addressed to it.
func NewInprocMesh(handlers []Handler) *InprocMesh {
	return &InprocMesh{handlers: handlers}
}

// Site returns the Transport site i sends through: the mesh itself,
// which needs no per-sender state.
func (m *InprocMesh) Site(i int) Transport { return m }

// Send implements Transport.
func (m *InprocMesh) Send(to int, msg *wire.Msg) error {
	if to < 0 || to >= len(m.handlers) {
		return fmt.Errorf("transport: site %d out of range", to)
	}
	if m.closed.Load() {
		return errClosed
	}
	m.handlers[to](msg)
	return nil
}

// Close makes every later Send fail. It has no queue to empty: a
// message is delivered before its Send returns. A Send that raced with
// Close may still reach the handler.
func (m *InprocMesh) Close() error {
	m.closed.Store(true)
	return nil
}
