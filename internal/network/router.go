package network

import (
	"fmt"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// RouterPolicy decides output ports inside every router — the paper's
// routing unit (Fig 4.6). The packet's multistep header has already been
// advanced by the HDP module when OutputPort is called, so policies that
// honour waypoints can steer toward pkt.CurrentTarget().
type RouterPolicy interface {
	// Name is the policy identifier used in reports.
	Name() string
	// OutputPort returns the output port index at router r for pkt.
	OutputPort(r *Router, pkt *Packet) int
}

// Router is the switch model of §4.1.2: routing unit + arbitration +
// crossbar, with output-buffered ports and the PR-DRB monitoring modules
// (LU, HDP, CFD, GPA of §3.3.2) attached at the ports.
type Router struct {
	ID  topology.RouterID
	net *Network
	sh  *Shard // owning shard; all of this router's events run on its engine
	// out is the router's port slab, indexed by port; its vcQueues live in
	// one parallel slab (Network.build).
	out []outPort
	// mpBuf is this router's private MinimalPorts scratch (cap = radix).
	// Routing decisions for a router always run on its shard's engine, so
	// per-router scratch is race-free under parallel shards while keeping
	// the per-decision call allocation-free.
	mpBuf []int
}

// Net returns the owning network (topology, config and RNG access for
// policies).
func (r *Router) Net() *Network { return r.net }

// MinimalPorts returns the minimal output ports at r toward dst, using the
// router's private scratch buffer. The result is valid until this router's
// next MinimalPorts call and must not be mutated.
func (r *Router) MinimalPorts(dst topology.NodeID) []int {
	return r.net.Topo.MinimalPorts(r.ID, dst, r.mpBuf)
}

// OutLoad returns the queued bytes at output port p — the congestion signal
// adaptive policies compare (§2.1.4 "adaptive algorithms take into account
// the status of the network").
func (r *Router) OutLoad(p int) int { return r.out[p].load() }

// Ports returns the router's port count.
func (r *Router) Ports() int { return len(r.out) }

// accept implements receiver: HDP header advance, routing decision, then
// admission into the chosen output buffer or parking with backpressure.
func (r *Router) accept(e *sim.Engine, pkt *Packet, from *outPort, fromVC int) bool {
	pkt.advanceHeader(r.ID)
	port := r.net.Policy.OutputPort(r, pkt)
	if port < 0 || port >= len(r.out) || r.out[port].peer == nil {
		panic(fmt.Sprintf("network: policy %q chose invalid port %d at router %d for %v",
			r.net.Policy.Name(), port, r.ID, pkt.Flow()))
	}
	op := &r.out[port]
	vc := r.net.prepareVC(op, pkt)
	if op.free(vc) >= pkt.SizeBytes {
		op.enqueue(e, pkt, vc)
		return true
	}
	q := &op.vcs[vc]
	q.parked = append(q.parked, parkedDelivery{pkt: pkt, from: from, fromVC: fromVC})
	op.waiting |= 1 << vc
	return false
}

// injectAck implements the GPA module (§3.3.2): the router originates a
// predictive ACK and pushes it toward its destination through this router's
// own ports. If the chosen port's ACK channel is full the notification is
// dropped (it is advisory; a retransmission would only add load to an
// already congested region).
func (r *Router) injectAck(e *sim.Engine, ack *Packet) bool {
	port := r.net.Policy.OutputPort(r, ack)
	if port < 0 || port >= len(r.out) || r.out[port].peer == nil {
		return false
	}
	op := &r.out[port]
	vc := r.net.prepareVC(op, ack)
	if op.free(vc) < ack.SizeBytes {
		return false
	}
	op.enqueue(e, ack, vc)
	return true
}

// PortPeerRouter returns the neighbouring router on port p, or -1 when the
// port leads to a terminal or is unwired. Policies use this to translate
// topology decisions into port indices.
func (r *Router) PortPeerRouter(p int) topology.RouterID {
	peer := r.net.Topo.PortPeer(r.ID, p)
	if peer.IsRouter() {
		return peer.Router
	}
	return topology.None
}
