// Package noc models the SoC interconnect: a dance-hall network inside the
// GPU (CUs to the shared L2), and the point-to-point CPU-GPU link over
// which IOMMU translation requests travel. Translation requests use the
// PCIe protocol even for integrated GPUs, which adds latency (Kegel et
// al., cited by the paper), so the IOMMU route carries an extra protocol
// adder.
package noc

import (
	"fmt"

	"vcache/internal/sim"
)

// Route names an endpoint pair. Routes index the network's link table
// directly, so resolving a route on the send path is an array load.
type Route uint8

// Standard routes in the modeled SoC.
const (
	CUToL2     Route = iota // dance-hall GPU network
	L2ToIOMMU               // virtual-cache miss path
	CUToIOMMU               // baseline per-CU TLB miss path
	IOMMUToMem              // page-table walker memory accesses
	L2ToMem                 // cache fill path
	CPUToGPU                // coherence probes
	numRoutes
)

// routeNames are the routes' metric names ("noc.cu-l2.messages").
var routeNames = [numRoutes]string{"cu-l2", "l2-iommu", "cu-iommu", "iommu-mem", "l2-mem", "cpu-gpu"}

// String returns the route's metric name.
func (r Route) String() string {
	if r < numRoutes {
		return routeNames[r]
	}
	return fmt.Sprintf("route(%d)", uint8(r))
}

// Link is a one-way interconnect segment with a fixed traversal latency
// and a bandwidth limit in messages per cycle (0 = unlimited).
type Link struct {
	Latency uint64
	server  *sim.BandwidthServer

	// Messages counts traversals.
	Messages uint64
}

// Network routes messages over configured links.
type Network struct {
	eng   *sim.Engine
	links [numRoutes]*Link
}

// New creates an empty network.
func New(eng *sim.Engine) *Network {
	return &Network{eng: eng}
}

// AddLink installs a link for route with the given latency and bandwidth
// (messages per cycle; 0 = unlimited). Adding a route twice replaces it.
func (n *Network) AddLink(r Route, latency uint64, perCycle int) *Link {
	l := &Link{Latency: latency, server: sim.NewBandwidthServer(n.eng, perCycle)}
	n.links[r] = l
	return l
}

// Link returns the link for r, or nil.
func (n *Network) Link(r Route) *Link {
	if r < numRoutes {
		return n.links[r]
	}
	return nil
}

// Latency returns the configured latency of r (0 for unknown routes, so an
// unconfigured network degrades to zero-latency, useful in unit tests).
func (n *Network) Latency(r Route) uint64 {
	if l := n.Link(r); l != nil {
		return l.Latency
	}
	return 0
}

// Send delivers a message over route r, invoking done when it arrives.
// Unknown routes deliver with zero delay. It adapts SendEvent.
func (n *Network) Send(r Route, done func()) {
	n.SendEvent(r, sim.Func(done), 0)
}

// SendEvent delivers a message over route r, firing h.Handle(arg) when it
// arrives. It is Send without a closure: pooled request records carry
// their own continuation, so a message allocates nothing.
func (n *Network) SendEvent(r Route, h sim.Handler, arg uint64) {
	l := n.Link(r)
	if l == nil {
		n.eng.ScheduleEvent(0, h, arg)
		return
	}
	l.Messages++
	start := l.server.Admit()
	n.eng.AtEvent(start+l.Latency, h, arg)
}

// RoundTrip returns latency for a request-response pair on r (2x one-way).
func (n *Network) RoundTrip(r Route) uint64 { return 2 * n.Latency(r) }

// MinLatency returns the smallest configured latency among the given
// routes — the conservative lookahead of a partitioned simulation whose
// partitions exchange messages only over those routes. Unconfigured
// routes count as zero-latency, making the lookahead (correctly)
// degenerate.
func (n *Network) MinLatency(rs ...Route) uint64 {
	var min uint64
	for i, r := range rs {
		if l := n.Latency(r); i == 0 || l < min {
			min = l
		}
	}
	return min
}

func (l *Link) String() string {
	return fmt.Sprintf("link{lat: %d, msgs: %d}", l.Latency, l.Messages)
}
