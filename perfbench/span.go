package main

import (
	_ "unsafe" // go:linkname

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// nanotime is the runtime's monotonic clock, without the wall-clock read
// time.Now adds to every call.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// layer names a program layer whose public entry points the traced run
// wraps.
type layer uint8

const (
	layerRouting layer = iota
	layerTopology
	// The core layer is timed per entry point; the ledger sums them.
	layerCorePrepare
	layerCoreAck
	layerCoreLoss
	numLayers
)

var layerNames = [numLayers]string{"routing", "topology", "core.prepare", "core.ack", "core.loss"}

// span is one timed call into a layer. Parent is the ID of the enclosing
// span (0 at top level), so a routing span that calls the topology reports
// its self time net of the child.
type span struct {
	Layer  string `json:"layer"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type frame struct {
	layer    layer
	id       int64
	parent   int64
	start    int64
	childDur int64
}

// tracer times the calls the wrappers report. It assumes one calling
// goroutine at a time: the traced run executes shards in line
// (GOMAXPROCS=1), so calls nest strictly on one stack.
type tracer struct {
	stack  []frame
	nextID int64
	spanDelta
	// sample keeps a bounded, evenly thinned sample of raw spans: when it
	// is full every other span is dropped and the keep stride doubles.
	sample []span
	stride int64
	seen   int64
}

func newTracer(sampleCap int) *tracer {
	return &tracer{stack: make([]frame, 0, 16), sample: make([]span, 0, sampleCap), stride: 1}
}

// spanDelta holds the aggregates over every call: calls, self time
// (duration minus the direct children's durations) and the number of
// direct child spans, per layer.
type spanDelta struct {
	calls, selfNs, children [numLayers]int64
}

func (a spanDelta) sub(b spanDelta) spanDelta {
	for l := range a.calls {
		a.calls[l] -= b.calls[l]
		a.selfNs[l] -= b.selfNs[l]
		a.children[l] -= b.children[l]
	}
	return a
}

func (a *spanDelta) add(b spanDelta) {
	for l := range a.calls {
		a.calls[l] += b.calls[l]
		a.selfNs[l] += b.selfNs[l]
		a.children[l] += b.children[l]
	}
}

// snapshot returns the aggregates so far; zero for a nil tracer.
func (t *tracer) snapshot() spanDelta {
	if t == nil {
		return spanDelta{}
	}
	return t.spanDelta
}

func (t *tracer) begin(l layer) {
	t.nextID++
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, frame{layer: l, id: t.nextID, parent: parent, start: nanotime()})
}

func (t *tracer) end() {
	end := nanotime()
	n := len(t.stack) - 1
	f := &t.stack[n]
	dur := end - f.start
	t.calls[f.layer]++
	t.selfNs[f.layer] += dur - f.childDur
	if n > 0 {
		p := &t.stack[n-1]
		p.childDur += dur
		t.children[p.layer]++
	}
	if t.seen%t.stride == 0 && cap(t.sample) > 0 {
		if len(t.sample) == cap(t.sample) {
			kept := t.sample[:0]
			for i := 0; i < len(t.sample); i += 2 {
				kept = append(kept, t.sample[i])
			}
			t.sample = kept
			t.stride *= 2
		}
		if t.seen%t.stride == 0 {
			t.sample = append(t.sample, span{Layer: layerNames[f.layer], ID: f.id, Parent: f.parent, Start: f.start, End: end})
		}
	}
	t.seen++
	t.stack = t.stack[:n]
}

// tracedPolicy times every routing decision.
type tracedPolicy struct {
	inner network.RouterPolicy
	t     *tracer
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) OutputPort(r *network.Router, pkt *network.Packet) int {
	p.t.begin(layerRouting)
	port := p.inner.OutputPort(r, pkt)
	p.t.end()
	return port
}

// tracedSource times a NIC's source controller.
type tracedSource struct {
	inner network.SourceController
	t     *tracer
}

func (c *tracedSource) Name() string { return c.inner.Name() }

func (c *tracedSource) PrepareInjection(e *sim.Engine, pkt *network.Packet) {
	c.t.begin(layerCorePrepare)
	c.inner.PrepareInjection(e, pkt)
	c.t.end()
}

func (c *tracedSource) HandleAck(e *sim.Engine, ack *network.Packet) {
	c.t.begin(layerCoreAck)
	c.inner.HandleAck(e, ack)
	c.t.end()
}

// tracedLossSource is tracedSource for controllers that also implement
// network.FailureAware; the network asserts that interface on NIC.Source,
// so a wrapper must expose it exactly when the wrapped controller does.
type tracedLossSource struct {
	*tracedSource
	loss network.FailureAware
}

func (c tracedLossSource) HandlePacketLoss(e *sim.Engine, pkt *network.Packet) {
	c.t.begin(layerCoreLoss)
	c.loss.HandlePacketLoss(e, pkt)
	c.t.end()
}

// wrapSource wraps a controller, keeping nil (direct injection) as nil.
func wrapSource(sc network.SourceController, t *tracer) network.SourceController {
	if sc == nil {
		return nil
	}
	ts := &tracedSource{inner: sc, t: t}
	if loss, ok := sc.(network.FailureAware); ok {
		return tracedLossSource{tracedSource: ts, loss: loss}
	}
	return ts
}

// wrapSources replaces every NIC's source controller with its timed
// wrapper.
func wrapSources(net *network.Network, t *tracer) {
	prev := make([]network.SourceController, len(net.NICs))
	for i, nic := range net.NICs {
		prev[i] = nic.Source
	}
	net.SetSourceController(func(node topology.NodeID) network.SourceController {
		return wrapSource(prev[node], t)
	})
}

// tracedTopology times every call into the topology. It is installed as
// the experiment's topology, so the network, the routing policies and the
// controllers all call through it.
type tracedTopology struct {
	inner topology.Topology
	t     *tracer
}

func (w tracedTopology) Name() string { return w.inner.Name() }

func (w tracedTopology) NumTerminals() int {
	w.t.begin(layerTopology)
	n := w.inner.NumTerminals()
	w.t.end()
	return n
}

func (w tracedTopology) NumRouters() int {
	w.t.begin(layerTopology)
	n := w.inner.NumRouters()
	w.t.end()
	return n
}

func (w tracedTopology) Radix(r topology.RouterID) int {
	w.t.begin(layerTopology)
	n := w.inner.Radix(r)
	w.t.end()
	return n
}

func (w tracedTopology) PortPeer(r topology.RouterID, p int) topology.Peer {
	w.t.begin(layerTopology)
	peer := w.inner.PortPeer(r, p)
	w.t.end()
	return peer
}

func (w tracedTopology) TerminalAttach(n topology.NodeID) (topology.RouterID, int) {
	w.t.begin(layerTopology)
	r, p := w.inner.TerminalAttach(n)
	w.t.end()
	return r, p
}

func (w tracedTopology) NextHop(r topology.RouterID, dst topology.NodeID) int {
	w.t.begin(layerTopology)
	p := w.inner.NextHop(r, dst)
	w.t.end()
	return p
}

func (w tracedTopology) MinimalPorts(r topology.RouterID, dst topology.NodeID, buf []int) []int {
	w.t.begin(layerTopology)
	ports := w.inner.MinimalPorts(r, dst, buf)
	w.t.end()
	return ports
}

func (w tracedTopology) NextHopToRouter(r, target topology.RouterID) int {
	w.t.begin(layerTopology)
	p := w.inner.NextHopToRouter(r, target)
	w.t.end()
	return p
}

func (w tracedTopology) AlternativePaths(src, dst topology.NodeID, max int) []topology.Path {
	w.t.begin(layerTopology)
	paths := w.inner.AlternativePaths(src, dst, max)
	w.t.end()
	return paths
}

func (w tracedTopology) Distance(a, b topology.RouterID) int {
	w.t.begin(layerTopology)
	d := w.inner.Distance(a, b)
	w.t.end()
	return d
}

func (w tracedTopology) RouterLabel(r topology.RouterID) string {
	w.t.begin(layerTopology)
	l := w.inner.RouterLabel(r)
	w.t.end()
	return l
}

func (w tracedTopology) LinkDim(r topology.RouterID, p int) (int, bool) {
	w.t.begin(layerTopology)
	dim, wrap := w.inner.LinkDim(r, p)
	w.t.end()
	return dim, wrap
}
