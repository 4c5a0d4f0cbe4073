// Package netsim models the Locus communication substrate of the
// Mirage prototype: point-to-point virtual circuits over a 10 Mbit
// Ethernet connecting a small number of sites.
//
// The cost model follows the paper's Table 3 accounting: each message
// is charged a transmission-elapsed interval at the sending site's
// network interface and a reception-elapsed interval at the receiving
// site's interface, both functions of the payload size
// (vaxmodel.MsgSideElapsed). Interfaces are serially reusable — a NIC
// transmits (or receives) one message at a time — which preserves the
// per-circuit FIFO ordering Locus guarantees and produces realistic
// queueing when protocol traffic bunches up.
//
// Delivery is reliable; Locus maintained virtual circuits beneath its
// network messages. For failure-injection tests a per-network Delay
// hook can stretch individual deliveries.
package netsim

import (
	"fmt"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/sim"
	"mirage/internal/vaxmodel"
)

// SiteID identifies a site (machine) on the network. Sites are
// numbered 0..n-1.
type SiteID int

// Message is a network message in flight.
type Message struct {
	From, To SiteID
	Size     int // payload bytes; 0 means a short (bufferless) message
	Payload  any // protocol-level content, opaque to the network
}

// Handler receives delivered messages at a site. It runs in kernel
// (event) context at the instant reception-elapsed completes.
type Handler func(m Message)

// Stats are cumulative traffic counters.
type Stats struct {
	Sent       int // messages handed to the network, excluding loopback
	Delivered  int // messages delivered to handlers, excluding loopback
	Loopback   int // messages where From == To (no network cost)
	ShortMsgs  int // delivered messages with Size < LargeThreshold
	LargeMsgs  int // delivered messages with Size >= LargeThreshold
	Bytes      int // cumulative payload bytes delivered
	Dropped    int // messages lost to the fault hook
	Duplicated int // extra copies delivered by the fault hook
}

// Fault is the injection verdict for one message, produced by the
// Inject hook (internal/chaos adapts its Injector to it). A dropped
// message still charges the sender's transmitter — the bits went out,
// the wire ate them — but never reaches the receiver. Each duplicate
// is a full extra transmission. Delay stretches propagation between
// the sender's tx-done and the receiver's interface, which can reorder
// messages on the same circuit.
type Fault struct {
	Drop  bool
	Dup   int // extra copies to deliver
	Delay time.Duration
}

// LargeThreshold classifies messages for Stats: the paper counts
// 1024-byte page-carrying responses as "large" and the rest as short.
const LargeThreshold = 512

type nic struct {
	txBusyUntil sim.Time
	rxBusyUntil sim.Time
	handler     Handler
}

// Network is a simulated Ethernet connecting n sites.
type Network struct {
	k     *sim.Kernel
	nics  []nic
	stats Stats

	// Inject, if non-nil, is consulted once per non-loopback Send and
	// applies the returned Fault. Loopback messages model intra-site
	// calls and are never faulted.
	Inject func(m Message) Fault

	// Obs, if non-nil, receives per-site delivery counters
	// (net_delivered / net_bytes, attributed to the receiving site).
	Obs *obs.Obs
}

// New creates a network of n sites on kernel k. Site counts beyond
// mmu.MaxSites (the copyset capacity) are a configuration bug and
// panic rather than silently corrupting reader records downstream.
func New(k *sim.Kernel, n int) *Network {
	if n > mmu.MaxSites {
		panic(fmt.Sprintf("netsim: %d sites: %v", n, mmu.ErrTooManySites))
	}
	return &Network{k: k, nics: make([]nic, n)}
}

// Bind registers the delivery handler for a site. Each site must be
// bound exactly once before messages are sent to it.
func (n *Network) Bind(s SiteID, h Handler) {
	if n.nics[s].handler != nil {
		panic(fmt.Sprintf("netsim: site %d bound twice", s))
	}
	n.nics[s].handler = h
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// Send queues a message for delivery. It may be called from any event
// or process context; it returns immediately, having scheduled the
// transmit/deliver events. Sending to an unbound site panics at
// delivery time.
//
// Loopback messages (From == To) model the colocated-library case: they
// are delivered at the current instant with no network charge. Callers
// account for local service CPU themselves.
func (n *Network) Send(m Message) {
	if m.To < 0 || int(m.To) >= len(n.nics) || m.From < 0 || int(m.From) >= len(n.nics) {
		panic(fmt.Sprintf("netsim: send %d -> %d out of range", m.From, m.To))
	}
	if m.From == m.To {
		n.stats.Loopback++
		n.k.Post(func() { n.deliverNow(m) })
		return
	}
	n.stats.Sent++
	var f Fault
	if n.Inject != nil {
		f = n.Inject(m)
	}
	if f.Drop {
		// The sender still transmitted; charge its NIC and stop there.
		n.stats.Dropped++
		n.chargeTx(m)
		return
	}
	n.stats.Duplicated += f.Dup
	for i := 0; i <= f.Dup; i++ {
		n.transmit(m, f.Delay)
	}
}

// chargeTx serializes one transmission on the sender's NIC and returns
// its completion instant.
func (n *Network) chargeTx(m Message) sim.Time {
	side := vaxmodel.MsgSideElapsed(m.Size)
	tx := &n.nics[m.From]
	start := n.k.Now()
	if tx.txBusyUntil > start {
		start = tx.txBusyUntil
	}
	txDone := start.Add(side)
	tx.txBusyUntil = txDone
	return txDone
}

// transmit carries one copy of m across the wire with extra
// propagation delay.
func (n *Network) transmit(m Message, extra time.Duration) {
	side := vaxmodel.MsgSideElapsed(m.Size)
	txDone := n.chargeTx(m)
	n.k.At(txDone.Add(extra), func() {
		// Serialize on the receiver's interface.
		rx := &n.nics[m.To]
		rstart := n.k.Now()
		if rx.rxBusyUntil > rstart {
			rstart = rx.rxBusyUntil
		}
		rxDone := rstart.Add(side)
		rx.rxBusyUntil = rxDone
		n.k.At(rxDone, func() { n.deliverNow(m) })
	})
}

func (n *Network) deliverNow(m Message) {
	h := n.nics[m.To].handler
	if h == nil {
		panic(fmt.Sprintf("netsim: deliver to unbound site %d", m.To))
	}
	if m.From != m.To {
		n.stats.Delivered++
		if m.Size >= LargeThreshold {
			n.stats.LargeMsgs++
		} else {
			n.stats.ShortMsgs++
		}
		n.stats.Bytes += m.Size
		n.Obs.Count(int(m.To), obs.CNetDelivered)
		n.Obs.CountN(int(m.To), obs.CNetByte, int64(m.Size))
	}
	h(m)
}
