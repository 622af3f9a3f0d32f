package network

import (
	"cmp"
	"math/bits"
	"slices"

	"prdrb/internal/metrics"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// receiver is the downstream end of a link. accept takes delivery of pkt;
// if the receiver has no buffer space it returns false and guarantees to
// return the credit exactly once — a portEvCredit event to `from` carrying
// fromVC — once the packet has been admitted, at which point the sender may
// reuse the VC. This models credit-based flow control (§2.1.3): a full
// downstream buffer stalls the upstream port, so congestion spreads backward
// exactly as in lossless fabrics.
type receiver interface {
	accept(e *sim.Engine, pkt *Packet, from *outPort, fromVC int) bool
}

// parkedDelivery is an in-flight packet waiting for downstream buffer space,
// remembering the upstream port and VC whose credit it holds.
type parkedDelivery struct {
	pkt    *Packet
	from   *outPort
	fromVC int
}

// vcQueue is one virtual channel's FIFO within an output port, together
// with the upstream deliveries parked on the VC waiting for its buffer
// space, so arbitration and admission touch one record. The FIFO is a
// singly linked list through Packet.next: enqueue appends at tail, pump
// pops head, neither allocates nor moves the other entries.
type vcQueue struct {
	head, tail *Packet
	bytes      int
	parked     []parkedDelivery
}

// push appends pkt to the FIFO.
func (q *vcQueue) push(pkt *Packet) {
	if q.tail == nil {
		q.head = pkt
	} else {
		q.tail.next = pkt
	}
	q.tail = pkt
	q.bytes += pkt.SizeBytes
}

// pop removes and returns the FIFO's head; the FIFO must be non-empty.
func (q *vcQueue) pop() *Packet {
	pkt := q.head
	q.head = pkt.next
	if q.head == nil {
		q.tail = nil
	}
	pkt.next = nil
	q.bytes -= pkt.SizeBytes
	return pkt
}

// The per-port VC state masks are uint8: every VC must have a bit.
const _ = uint(8 - maxVCs)

// outPort is an output port with per-VC buffering, round-robin VC
// arbitration (Fig 4.6) and a single serializing link.
//
// Arbitration state lives in three VC bitmasks kept in step with the
// queues (bit vc set iff the condition holds for VC vc):
//
//   - queued:  vcs[vc].head != nil (the FIFO is non-empty);
//   - blocked: a packet of the VC sits in the downstream input latch
//     awaiting buffer admission (or, across a shard boundary, its credit
//     is in flight). The VC holds no credit — one per link and VC — but the
//     physical link stays available to the other VCs; without this, one
//     full VC would couple every class and void the per-segment deadlock
//     freedom;
//   - waiting: vcs[vc].parked is non-empty.
//
// Link release is lazy. A transmission holds the link (busy) until
// serEnd, but the port queues its portEvFree event only when a VC is ready
// to use the link then. Otherwise it takes an engine reservation for the
// slot the event would have had (rsv, rsvSeq; the time is serEnd) and
// queues nothing: most releases find no packet waiting. pump resolves the
// reservation when work arrives — see pump and load.
//
// Router ports are allocated as one slab per router and NIC ports as one
// network-wide slab, each with their vcQueues in a parallel slab (build).
type outPort struct {
	// The leading 64 bytes hold everything Router.accept and pickVC read.
	queued  uint8
	blocked uint8
	waiting uint8
	rr      uint8 // round-robin arbitration pointer
	busy    bool
	// down marks a failed link: the queue is not served, no credits are
	// emitted, and the in-flight packet is dropped on delivery (health.go).
	down bool
	// linkWrap and linkDim classify the attached link for dateline VC
	// assignment (topology.LinkDim of the wired port).
	linkWrap bool
	// rsv marks a busy link whose release holds the engine reservation
	// (serEnd, rsvSeq) instead of a queued portEvFree.
	rsv     bool
	vcs     []vcQueue
	peer    receiver
	vcCap   int // capacity per VC in bytes
	linkDim int32
	port    int32 // index on the owning router (0 for a NIC port)

	net    *Network
	sh     *Shard            // owning shard (the serial network's only one)
	router topology.RouterID // owning router, or -1 for a NIC port
	// cong is the port's congestion accumulator (congestion.go); nil when
	// congestion accounting is off, so disabled runs pay one predictable
	// branch per hook and allocate nothing.
	cong *congPort
	// inflight is the packet between pump and deliver. At most one packet is
	// ever in that window per port — busy is raised by pump and only cleared
	// after the delivery completed (freeLink) — so the deliver event can
	// carry just the VC in its payload word and find the packet here.
	inflight *Packet
	// txExtra is the fixed post-serialization delay: propagation plus, for
	// router peers, the routing pipeline delay.
	txExtra sim.Time

	// rate scales the link bandwidth when the link is degraded; 0 or 1
	// means nominal rate.
	rate float64
	// serEnd is when the link frees for the next packet: when the in-flight
	// packet's tail leaves it (on a boundary link, no earlier than the
	// header's arrival). The port cannot start the next packet before it
	// even if the downstream accepted the (cut-through) header earlier.
	serEnd sim.Time
	// busyNs and txBytes account link occupancy for the energy/provision
	// analyses (§5.2 open lines).
	busyNs  sim.Time
	txBytes int64
	// remote marks a boundary link: the peer router lives on another
	// shard and deliveries travel the cross-shard protocol (shard.go).
	// Nil for intra-shard links and always nil in serial mode.
	remote *remoteLink
	// obs is the pre-resolved contention-metrics handle for this router's
	// stats (invalid for NIC ports or when no collector is attached), so the
	// hot path never indexes through the collector.
	obs    metrics.RouterObserver
	rsvSeq uint64
	// lastRouterAck rate-limits router-based predictive notifications.
	lastRouterAck sim.Time
}

// Typed event kinds delivered to an outPort (sim.Actor).
const (
	// portEvDeliver hands the inflight packet to the peer; arg is the VC.
	portEvDeliver uint8 = iota
	// portEvFree releases the link at serialization end; arg carries the
	// expected serEnd so a superseding transmission invalidates the event.
	portEvFree
	// portEvCredit returns a VC credit from the downstream receiver; arg is
	// the VC whose parked-out latch freed.
	portEvCredit
)

// HandleEvent implements sim.Actor: the port's hot-path transitions run as
// typed events, so steady-state forwarding schedules nothing but pooled
// event records.
func (o *outPort) HandleEvent(e *sim.Engine, kind uint8, arg uint64) {
	switch kind {
	case portEvDeliver:
		pkt := o.inflight
		o.inflight = nil
		o.deliver(e, pkt, int(arg))
	case portEvFree:
		if uint64(o.serEnd) == arg { // not superseded
			o.busy = false
			o.pump(e)
		}
	case portEvCredit:
		o.creditReturned(e, int(arg))
	}
}

func (o *outPort) free(vc int) int { return o.vcCap - o.vcs[vc].bytes }

// enqueue admits pkt into VC vc; the caller has verified space.
func (o *outPort) enqueue(e *sim.Engine, pkt *Packet, vc int) {
	pkt.enqueuedAt = e.Now()
	if o.cong != nil {
		o.cong.enqueued(e.Now(), pkt.SizeBytes)
	}
	o.vcs[vc].push(pkt)
	o.queued |= 1 << vc
	o.pump(e)
}

// pickVC round-robins over the non-empty virtual channels, skipping VCs
// whose downstream latch is occupied (no credit): the first ready VC at or
// after rr, else the first ready VC below it. This runs once per
// transmitted packet, so it reads the two masks instead of the queues.
func (o *outPort) pickVC() int {
	ready := o.queued &^ o.blocked
	if ready == 0 {
		return -1
	}
	vc := bits.TrailingZeros8(ready)
	if hi := ready >> o.rr << o.rr; hi != 0 {
		vc = bits.TrailingZeros8(hi)
	}
	o.rr = uint8(vc + 1)
	if int(o.rr) >= len(o.vcs) {
		o.rr = 0
	}
	return vc
}

// pump starts transmitting the next queued packet if the link is idle. A
// down link is never pumped: its queue survives, frozen, until repair.
//
// A busy link whose release holds a reservation is resolved here: once
// the reserved slot has passed the link is free, so transmit now, exactly
// as if the release event had fired and idled the port; before then, a
// ready VC turns the reservation into the real release event in that very
// slot; otherwise nothing changes.
func (o *outPort) pump(e *sim.Engine) {
	if o.down {
		return
	}
	if o.busy {
		if !o.rsv {
			return
		}
		r := o.reservation()
		if !e.Passed(r) {
			if o.queued&^o.blocked != 0 {
				o.rsv = false
				e.ScheduleReserved(r, o, portEvFree, uint64(o.serEnd))
			}
			return
		}
		o.busy, o.rsv = false, false
	}
	vc := o.pickVC()
	if vc < 0 {
		return
	}
	q := &o.vcs[vc]
	pkt := q.pop()
	if q.head == nil {
		o.queued &^= 1 << vc
	}
	o.busy = true

	wait := e.Now() - pkt.enqueuedAt
	pkt.hops++
	pkt.queueNs += wait
	if o.cong != nil {
		o.cong.dequeued(e.Now(), pkt.SizeBytes, wait)
	}
	if o.router >= 0 {
		// Latency Update module (Eq 3.3): accumulate buffer wait into the
		// packet and record the router's contention latency.
		pkt.PathLatency += wait
		if o.obs.Valid() {
			o.obs.Observe(wait, e.Now())
		}
		if o.sh.Tracer.Sampled(pkt.ID) {
			o.sh.Tracer.PacketHop(e.Now(), pkt.ID, int(o.router), int(o.port), wait)
		}
		o.monitorDeparture(e, pkt, wait)
	}
	// Space was freed: admit parked upstream deliveries.
	o.admitParked(e)

	// Virtual cut-through (§2.1.2): the downstream device sees the packet
	// after just the header time, while this link stays occupied for the
	// full serialization. Backpressure holds the VC, not the link: see
	// deliver/creditReturned.
	ser := o.net.Cfg.SerializationTime(pkt.SizeBytes)
	cut := o.net.Cfg.SerializationTime(o.net.Cfg.HeaderBytes)
	if o.rate > 0 && o.rate < 1 {
		// Transient bandwidth degradation stretches serialization.
		ser = sim.Time(float64(ser) / o.rate)
		cut = sim.Time(float64(cut) / o.rate)
	}
	if cut > ser {
		cut = ser
	}
	o.serEnd = e.Now() + ser
	o.busyNs += ser
	o.txBytes += int64(pkt.SizeBytes)
	// Attribution integrates the serialization on the packet's critical
	// path: under cut-through the downstream hop proceeds after the header
	// time, so only cut delays this packet — the body's ser tail shows up
	// as queueing behind the busy link downstream, never double-counted.
	pkt.serNs += cut
	if o.cong != nil {
		o.cong.vcBusyNs[vc] += int64(ser)
	}
	if o.remote != nil {
		o.sendRemote(e, pkt, vc, cut)
		return
	}
	o.inflight = pkt
	e.AfterEvent(cut+o.txExtra, o, portEvDeliver, uint64(vc))
}

// sendRemote ships the packet across a shard boundary with exactly the
// arrival timestamp the local deliver event would have had (cut-through
// header time plus link/routing delay — at least the group lookahead, so
// the destination shard has not advanced past it). Flow control turns
// pessimistic at boundaries: every transmission parks the VC until the
// receiver returns the credit, one lookahead after arrival. Data packets
// serialize for longer than that round trip, so only the narrow ACK
// channel feels the throttle. The physical link itself frees at the same
// instant the local path would have freed it.
func (o *outPort) sendRemote(e *sim.Engine, pkt *Packet, vc int, cut sim.Time) {
	arrive := e.Now() + cut + o.txExtra
	o.blocked |= 1 << vc
	o.net.group.Send(o.sh.Idx, o.remote.shard, sim.RemoteEvent{
		At:     arrive,
		Target: o.remote.target,
		Kind:   remoteDeliver,
		Arg:    uint64(vc),
		Ptr:    pkt,
		Aux:    o,
	})
	if arrive > o.serEnd {
		o.serEnd = arrive
	}
	o.releaseAt(e)
}

// monitorDeparture drives CFD (§3.3.2). It is gated on GenerateAcks: the
// predictive header it writes is only ever read back through the ACK
// path, so runs without ACKs (the oblivious baselines) skip the
// contending-flows bookkeeping entirely.
func (o *outPort) monitorDeparture(e *sim.Engine, pkt *Packet, wait sim.Time) {
	cfg := &o.net.Cfg
	if cfg.GenerateAcks && wait > cfg.CongestionThreshold && pkt.Type == DataPacket {
		flows := o.topContendingFlows(pkt)
		if len(flows) > 0 {
			switch cfg.NotifyMode {
			case DestinationBased:
				// Attach/merge the predictive header; the destination will
				// copy it into the ACK (§3.2.2).
				pkt.ReportRouter = o.router
				pkt.Contending = mergeFlows(pkt.Contending, flows, cfg.MaxContending)
			case RouterBased:
				if e.Now()-o.lastRouterAck >= cfg.RouterAckInterval {
					o.lastRouterAck = e.Now()
					o.net.injectPredictiveAcks(e, o, flows, wait)
				}
				// P bit: tell the destination a predictive ACK was already
				// sent, so it replies with a latency-only ACK (§3.4.2).
				pkt.Predictive = true
			}
		}
	}
}

// topContendingFlows implements the §3.2.7 selection: rank the flows
// currently occupying this port's buffers by byte share and keep those
// above ContendShare, capped at MaxContending. The departing packet's own
// flow is included — it is, by definition, contending here.
func (o *outPort) topContendingFlows(departing *Packet) []FlowKey {
	// One entry per buffered packet in the shard's scratch, sorted by flow
	// and summed per flow in place: no map, and no allocation but the
	// returned list (the caller keeps it in a packet header).
	fb := append(o.sh.flowScratch[:0], flowBytes{departing.Flow(), departing.SizeBytes})
	total := departing.SizeBytes
	for vc := range o.vcs {
		if o.net.isAckVC(vc) {
			continue
		}
		for p := o.vcs[vc].head; p != nil; p = p.next {
			fb = append(fb, flowBytes{p.Flow(), p.SizeBytes})
			total += p.SizeBytes
		}
	}
	o.sh.flowScratch = fb
	slices.SortFunc(fb, func(a, b flowBytes) int {
		if c := cmp.Compare(a.f.Src, b.f.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.f.Dst, b.f.Dst)
	})
	floor := o.net.Cfg.ContendShare * float64(total)
	ranked := fb[:0] // the write index never passes the read index
	for i := 0; i < len(fb); {
		cur := fb[i]
		for i++; i < len(fb) && fb[i].f == cur.f; i++ {
			cur.b += fb[i].b
		}
		if float64(cur.b) >= floor {
			ranked = append(ranked, cur)
		}
	}
	slices.SortFunc(ranked, func(a, b flowBytes) int {
		if a.b != b.b {
			return cmp.Compare(b.b, a.b)
		}
		if c := cmp.Compare(a.f.Src, b.f.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.f.Dst, b.f.Dst)
	})
	if len(ranked) > o.net.Cfg.MaxContending {
		ranked = ranked[:o.net.Cfg.MaxContending]
	}
	out := make([]FlowKey, len(ranked))
	for i, r := range ranked {
		out[i] = r.f
	}
	return out
}

// flowBytes is one flow's byte share of a port's buffers (CFD ranking).
type flowBytes struct {
	f FlowKey
	b int
}

// mergeFlows merges new flows into an existing predictive header, keeping
// order and the capacity cap. Headers hold at most MaxContending flows, so
// a linear membership scan beats a set.
func mergeFlows(have, add []FlowKey, max int) []FlowKey {
	for _, f := range add {
		if len(have) >= max {
			break
		}
		if !slices.Contains(have, f) {
			have = append(have, f)
		}
	}
	return have
}

// deliver hands the packet to the downstream receiver. On refusal the
// packet stays in the downstream input latch: the VC loses its credit
// (blocked) but the link itself frees at serialization end, so other
// virtual channels keep flowing.
func (o *outPort) deliver(e *sim.Engine, pkt *Packet, vc int) {
	if o.peer == nil {
		panic("network: delivery on unwired port")
	}
	if o.down {
		// The link died under the packet: it is lost. The link is still
		// freed so service restarts cleanly after repair.
		o.net.dropPacketAt(e, o.sh, pkt, int(o.router))
		o.freeLink(e)
		return
	}
	if o.linkWrap {
		// The packet just crossed this ring's dateline: it continues on
		// the high virtual channel of its class within this dimension.
		pkt.dateline = true
	}
	if !o.peer.accept(e, pkt, o, vc) {
		o.blocked |= 1 << vc
		o.sh.creditsStalled++
		if o.cong != nil && o.cong.stallFrom[vc] < 0 {
			o.cong.stallFrom[vc] = e.Now()
		}
		if o.sh.Rec != nil {
			o.sh.Rec.Record(telemetry.FlightEvent{
				AtNs: int64(e.Now()), Kind: telemetry.FlightStall,
				Router: int(o.router), Port: int(o.port), VC: vc,
				Pkt: pkt.ID, Src: int(pkt.Src), Dst: int(pkt.Dst),
			})
		}
	}
	o.freeLink(e)
}

// creditReturned runs when the downstream admits a previously parked
// packet: the VC's credit comes back.
func (o *outPort) creditReturned(e *sim.Engine, vc int) {
	o.blocked &^= 1 << vc
	if o.cong != nil {
		if s := o.cong.stallFrom[vc]; s >= 0 {
			o.cong.vcStallNs[vc] += int64(e.Now() - s)
			o.cong.stallFrom[vc] = -1
		}
	}
	o.pump(e)
}

// freeLink releases the physical link once the packet's tail has left it.
func (o *outPort) freeLink(e *sim.Engine) {
	if e.Now() < o.serEnd {
		o.releaseAt(e)
		return
	}
	o.busy = false
	o.pump(e)
}

// releaseAt arranges the link's release at serEnd: the portEvFree event
// when a VC is ready to transmit then, else a reservation of its slot.
// The serEnd guard travels in the event payload: a later transmission
// moves serEnd and thereby invalidates the event.
func (o *outPort) releaseAt(e *sim.Engine) {
	if o.queued&^o.blocked != 0 {
		e.ScheduleEvent(o.serEnd, o, portEvFree, uint64(o.serEnd))
		return
	}
	o.rsv = true
	o.rsvSeq = e.Reserve(o.serEnd).Seq
}

// admitParked moves waiting upstream deliveries into freed buffer space,
// fairly across VCs, and resumes their senders.
func (o *outPort) admitParked(e *sim.Engine) {
	for w := o.waiting; w != 0; w &= w - 1 {
		vc := bits.TrailingZeros8(w)
		q := &o.vcs[vc]
		for len(q.parked) > 0 && o.free(vc) >= q.parked[0].pkt.SizeBytes {
			pd := q.parked[0]
			copy(q.parked, q.parked[1:])
			q.parked = q.parked[:len(q.parked)-1]
			o.enqueue(e, pd.pkt, vc)
			if pd.from.sh != o.sh {
				// The sender lives on another shard: its pessimistic
				// credit comes back over the boundary, one lookahead out.
				o.sh.sendCredit(e, pd.from, pd.fromVC)
				continue
			}
			// Return the credit via a fresh event to bound recursion depth.
			e.AfterEvent(0, pd.from, portEvCredit, uint64(pd.fromVC))
		}
		if len(q.parked) == 0 {
			o.waiting &^= 1 << vc
		}
	}
}

// load returns the total queued bytes (a congestion signal for adaptive
// routing policies), including a nominal in-flight packet while the link
// is held: until its release, reserved or queued, has passed.
func (o *outPort) load() int {
	total := 0
	for vc := range o.vcs {
		total += o.vcs[vc].bytes
	}
	if o.linkHeld() {
		total += o.net.Cfg.PacketBytes
	}
	return total
}

// linkHeld reports whether the link is occupied at the engine's current
// position: busy, and not released through a reservation that has passed.
func (o *outPort) linkHeld() bool {
	return o.busy && !(o.rsv && o.sh.Eng.Passed(o.reservation()))
}

// reservation is the engine slot the link release holds while rsv is set.
func (o *outPort) reservation() sim.Reservation {
	return sim.Reservation{At: o.serEnd, Seq: o.rsvSeq}
}
