// Package transport provides the live-mode message fabrics for the
// Mirage DSM: an in-process mesh for single-address-space clusters and
// a TCP mesh carrying the wire format over real sockets. Both deliver
// *wire.Msg values to a per-site handler, preserving per-sender FIFO
// order — the virtual-circuit guarantee the protocol assumes from
// Locus (§7.1).
package transport

import (
	"fmt"

	"mirage/internal/wire"
)

// Handler receives delivered messages for a site. A fabric calls it
// from whichever goroutine the message arrived on — the sender's own
// for InprocMesh, one reader per socket for TCPMesh (a pair of sites
// shares one socket, two after a simultaneous dial), a timer's for a
// chaos-delayed copy — so it must be safe to call from several
// goroutines at once, and it must not block: it runs on the sender's
// time. What a fabric guarantees in return is order per
// sender: the messages one goroutine sent to a site reach that site's
// handler in the order they were sent, each call returning before the
// next begins. The live node's handlers are the model: the in-process
// one runs the protocol step on the calling goroutine at an idle site
// and appends the message to the site's inbox at a busy one, the TCP one
// always appends; neither waits.
//
// Ownership: the message belongs to the handler, which may retain it
// (and its Data) indefinitely. Fabrics whose decode path aliases a
// reused read buffer are responsible for un-aliasing Data (see
// wire.Msg.CloneData) before delivery.
type Handler func(m *wire.Msg)

// Transport sends protocol messages between sites.
type Transport interface {
	// Send hands m to site `to`. It may be called from several
	// goroutines at once and must not block on the receiver's
	// processing; messages one goroutine sends to one site are
	// delivered in that order. A site's messages to itself are not a
	// fabric's business: the live node keeps them in its own inbox,
	// and TCPMesh refuses them as it refuses any site it has no
	// circuit to.
	Send(to int, m *wire.Msg) error
	// Close tears the fabric down; subsequent Sends fail.
	Close() error
}

// ErrClosed is returned by Send after Close.
var errClosed = fmt.Errorf("transport: closed")
