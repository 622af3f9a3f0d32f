package network

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"prdrb/internal/metrics"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// refPickVC is the slice-walking round-robin arbiter the VC masks replace:
// from rr, with wrap-around, the first VC whose queue is non-empty and
// whose credit is not held downstream. It returns the VC (or -1) and the
// next rr.
func refPickVC(nonEmpty, blocked []bool, rr int) (int, int) {
	n := len(nonEmpty)
	vc := rr
	for i := 0; i < n; i++ {
		if vc >= n {
			vc -= n
		}
		if nonEmpty[vc] && !blocked[vc] {
			rr = vc + 1
			if rr >= n {
				rr = 0
			}
			return vc, rr
		}
		vc++
	}
	return -1, rr
}

// TestPickVCMatchesSliceArbiter checks the mask arbiter against the
// reference over every queued state, every blocked state and every rr, at
// the non-dateline (4) and dateline (8) VC counts.
func TestPickVCMatchesSliceArbiter(t *testing.T) {
	for _, n := range []int{numClasses, maxVCs} {
		o := &outPort{vcs: make([]vcQueue, n)}
		nonEmpty := make([]bool, n)
		blocked := make([]bool, n)
		for queued := 0; queued < 1<<n; queued++ {
			for blk := 0; blk < 1<<n; blk++ {
				for vc := 0; vc < n; vc++ {
					nonEmpty[vc] = queued&(1<<vc) != 0
					blocked[vc] = blk&(1<<vc) != 0
				}
				for rr := 0; rr < n; rr++ {
					o.queued, o.blocked, o.rr = uint8(queued), uint8(blk), uint8(rr)
					wantVC, wantRR := refPickVC(nonEmpty, blocked, rr)
					gotVC := o.pickVC()
					if gotVC != wantVC || int(o.rr) != wantRR {
						t.Fatalf("n=%d queued=%08b blocked=%08b rr=%d: got vc=%d rr=%d, want vc=%d rr=%d",
							n, queued, blk, rr, gotVC, o.rr, wantVC, wantRR)
					}
				}
			}
		}
	}
}

// TestAdmitParkedMatchesSliceLoop checks admitParked against the loop it
// replaced — every VC in order, draining its parked list while the head
// fits — on random queue and parked states. The admission order is read
// back from the credit events it schedules: each parked delivery carries a
// unique fromVC tag.
func TestAdmitParkedMatchesSliceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	sizes := []int{cfg.AckBytes, cfg.PacketBytes / 2, cfg.PacketBytes}
	for _, n := range []int{numClasses, maxVCs} {
		for trial := 0; trial < 2000; trial++ {
			e := sim.NewEngine()
			sh := &Shard{Eng: e}
			from := &outPort{sh: sh}
			// busy keeps enqueue's pump from transmitting: admitParked
			// runs from pump with the link just claimed.
			o := &outPort{sh: sh, busy: true, vcCap: 2 * cfg.PacketBytes, vcs: make([]vcQueue, n)}
			bytes := make([]int, n)
			parked := make([][]int, n) // sizes, tagged by position
			tags := make([][]int, n)
			tag := 0
			for vc := 0; vc < n; vc++ {
				for o.vcs[vc].bytes < o.vcCap && rng.Intn(3) > 0 {
					s := sizes[rng.Intn(len(sizes))]
					if o.vcs[vc].bytes+s > o.vcCap {
						break
					}
					o.enqueue(e, &Packet{SizeBytes: s}, vc)
				}
				bytes[vc] = o.vcs[vc].bytes
				for k := rng.Intn(4); k > 0; k-- {
					s := sizes[rng.Intn(len(sizes))]
					q := &o.vcs[vc]
					q.parked = append(q.parked, parkedDelivery{pkt: &Packet{SizeBytes: s}, from: from, fromVC: tag})
					o.waiting |= 1 << vc
					parked[vc] = append(parked[vc], s)
					tags[vc] = append(tags[vc], tag)
					tag++
				}
			}

			// Reference: the slice loop over every VC.
			var want []int
			for vc := 0; vc < n; vc++ {
				for len(parked[vc]) > 0 && o.vcCap-bytes[vc] >= parked[vc][0] {
					bytes[vc] += parked[vc][0]
					want = append(want, tags[vc][0])
					parked[vc], tags[vc] = parked[vc][1:], tags[vc][1:]
				}
			}

			o.admitParked(e)
			var got []int
			for _, ev := range e.PendingEvents() {
				if ev.Kind != portEvCredit {
					t.Fatalf("unexpected event kind %d", ev.Kind)
				}
				got = append(got, int(ev.Arg))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("n=%d trial %d: admission order %v, want %v", n, trial, got, want)
			}
			for vc := 0; vc < n; vc++ {
				if o.vcs[vc].bytes != bytes[vc] || len(o.vcs[vc].parked) != len(parked[vc]) {
					t.Fatalf("n=%d trial %d vc %d: bytes=%d parked=%d, want %d and %d", n, trial, vc,
						o.vcs[vc].bytes, len(o.vcs[vc].parked), bytes[vc], len(parked[vc]))
				}
			}
			if err := o.checkMasks(); err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
		}
	}
}

// TestVCFifoMatchesSliceReference drives one port through random
// offers (enqueued when the VC has space, else parked as Router.accept
// does) and pumps, and checks after every step that each VC's linked FIFO
// holds exactly the packets, in the order, of a slice-FIFO reference
// model — departures in FIFO order, parked deliveries admitted in VC
// order while their head fits — and that departing packets leave
// unlinked.
func TestVCFifoMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	sizes := []int{cfg.AckBytes, cfg.PacketBytes / 2, cfg.PacketBytes}
	for _, n := range []int{numClasses, maxVCs} {
		for trial := 0; trial < 200; trial++ {
			e := sim.NewEngine()
			sh := &Shard{Eng: e}
			from := &outPort{sh: sh}
			o := &outPort{net: &Network{Cfg: cfg}, sh: sh, router: -1, vcCap: 2 * cfg.PacketBytes, vcs: make([]vcQueue, n)}
			fifo := make([][]*Packet, n)
			parked := make([][]*Packet, n)
			used := make([]int, n)
			vcOf := map[*Packet]int{}
			rr := 0
			for step := 0; step < 300; step++ {
				if rng.Intn(5) < 3 {
					vc := rng.Intn(n)
					pkt := &Packet{SizeBytes: sizes[rng.Intn(len(sizes))]}
					vcOf[pkt] = vc
					// busy keeps enqueue's own pump from transmitting.
					o.busy = true
					if o.free(vc) >= pkt.SizeBytes {
						o.enqueue(e, pkt, vc)
						fifo[vc] = append(fifo[vc], pkt)
						used[vc] += pkt.SizeBytes
					} else {
						q := &o.vcs[vc]
						q.parked = append(q.parked, parkedDelivery{pkt: pkt, from: from})
						o.waiting |= 1 << vc
						parked[vc] = append(parked[vc], pkt)
					}
				} else {
					nonEmpty := make([]bool, n)
					for vc := range fifo {
						nonEmpty[vc] = len(fifo[vc]) > 0
					}
					wantVC, nextRR := refPickVC(nonEmpty, make([]bool, n), rr)
					o.busy = false
					o.pump(e)
					if wantVC < 0 {
						if o.inflight != nil {
							t.Fatalf("n=%d trial %d step %d: pumped from empty port", n, trial, step)
						}
						continue
					}
					rr = nextRR
					got := o.inflight
					o.inflight = nil
					if got != fifo[wantVC][0] || vcOf[got] != wantVC {
						t.Fatalf("n=%d trial %d step %d: pumped a packet of vc %d, want the head of vc %d",
							n, trial, step, vcOf[got], wantVC)
					}
					if got.next != nil {
						t.Fatalf("n=%d trial %d step %d: departing packet still linked", n, trial, step)
					}
					fifo[wantVC] = fifo[wantVC][1:]
					used[wantVC] -= got.SizeBytes
					for vc := 0; vc < n; vc++ {
						for len(parked[vc]) > 0 && o.vcCap-used[vc] >= parked[vc][0].SizeBytes {
							fifo[vc] = append(fifo[vc], parked[vc][0])
							used[vc] += parked[vc][0].SizeBytes
							parked[vc] = parked[vc][1:]
						}
					}
				}
				for vc := 0; vc < n; vc++ {
					var list []*Packet
					for p := o.vcs[vc].head; p != nil; p = p.next {
						list = append(list, p)
					}
					if !slices.Equal(list, fifo[vc]) || len(o.vcs[vc].parked) != len(parked[vc]) {
						t.Fatalf("n=%d trial %d step %d vc %d: FIFO of %d packets (%d parked), want %d (%d parked)",
							n, trial, step, vc, len(list), len(o.vcs[vc].parked), len(fifo[vc]), len(parked[vc]))
					}
				}
				if err := o.checkMasks(); err != nil {
					t.Fatalf("n=%d trial %d step %d: %v", n, trial, step, err)
				}
			}
		}
	}
}

// refContendingFlows is the map-based §3.2.7 ranking topContendingFlows
// replaced.
func refContendingFlows(o *outPort, departing *Packet) []FlowKey {
	counts := map[FlowKey]int{departing.Flow(): departing.SizeBytes}
	total := departing.SizeBytes
	for vc := range o.vcs {
		if o.net.isAckVC(vc) {
			continue
		}
		for p := o.vcs[vc].head; p != nil; p = p.next {
			counts[p.Flow()] += p.SizeBytes
			total += p.SizeBytes
		}
	}
	type fc struct {
		f FlowKey
		b int
	}
	var ranked []fc
	for f, b := range counts {
		if float64(b) >= o.net.Cfg.ContendShare*float64(total) {
			ranked = append(ranked, fc{f, b})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].b != ranked[j].b {
			return ranked[i].b > ranked[j].b
		}
		if ranked[i].f.Src != ranked[j].f.Src {
			return ranked[i].f.Src < ranked[j].f.Src
		}
		return ranked[i].f.Dst < ranked[j].f.Dst
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

// TestTopContendingFlowsMatchesMapRanking checks the scratch-slice
// ranking against the map-based one on random port contents: few flows
// (many ties and repeats), many flows (the MaxContending cap), ACK VCs
// that must be ignored, and a range of share thresholds.
func TestTopContendingFlowsMatchesMapRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, share := range []float64{0, 0.05, 0.2, 0.5} {
		n := testNet(t, topology.NewTorus(4, 4), func(c *Config) { c.ContendShare = share })
		o := &n.Routers[5].out[0]
		for trial := 0; trial < 500; trial++ {
			for vc := range o.vcs {
				o.vcs[vc] = vcQueue{}
			}
			nodes := 2 + rng.Intn(14)
			flow := func() (topology.NodeID, topology.NodeID) {
				return topology.NodeID(rng.Intn(nodes)), topology.NodeID(rng.Intn(nodes))
			}
			for k := rng.Intn(40); k > 0; k-- {
				src, dst := flow()
				sizes := []int{64, 512, 1024}
				vc := rng.Intn(len(o.vcs))
				o.vcs[vc].push(&Packet{Src: src, Dst: dst, SizeBytes: sizes[rng.Intn(3)]})
			}
			src, dst := flow()
			dep := &Packet{Src: src, Dst: dst, SizeBytes: 1024}
			got, want := o.topContendingFlows(dep), refContendingFlows(o, dep)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("share=%v trial %d: ranked %v, want %v", share, trial, got, want)
			}
		}
	}
}

// checkMasks verifies the queued and waiting masks against the queues,
// each FIFO's byte count against the sum over its list, and its tail
// against the list's last packet.
func (o *outPort) checkMasks() error {
	for vc := range o.vcs {
		bit := uint8(1) << vc
		q := &o.vcs[vc]
		n, bytes := 0, 0
		var last *Packet
		for p := q.head; p != nil; p = p.next {
			n++
			bytes += p.SizeBytes
			last = p
		}
		if (o.queued&bit != 0) != (n > 0) {
			return fmt.Errorf("vc %d: queued bit %v with %d queued packets", vc, o.queued&bit != 0, n)
		}
		if q.bytes != bytes {
			return fmt.Errorf("vc %d: bytes=%d, but the %d queued packets hold %d", vc, q.bytes, n, bytes)
		}
		if q.tail != last {
			return fmt.Errorf("vc %d: tail is not the last of the %d queued packets", vc, n)
		}
		if (o.waiting&bit != 0) != (len(o.vcs[vc].parked) > 0) {
			return fmt.Errorf("vc %d: waiting bit %v with %d parked deliveries", vc, o.waiting&bit != 0, len(o.vcs[vc].parked))
		}
	}
	if n := len(o.vcs); n < 8 && (o.queued|o.blocked|o.waiting)>>n != 0 {
		return fmt.Errorf("mask bits set above VC %d: queued=%08b blocked=%08b waiting=%08b", n, o.queued, o.blocked, o.waiting)
	}
	return nil
}

// TestPortMasksTrackQueuesUnderBackpressure stops a saturated torus run
// (dateline pairs: 8 VCs, single-packet buffers) at many points and checks
// every port's masks against its queues, and that every parked delivery's
// sender holds its VC blocked.
func TestPortMasksTrackQueuesUnderBackpressure(t *testing.T) {
	topo := topology.NewTorus(4, 4)
	eng := sim.NewEngine()
	col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
	net := MustNew(eng, topo, minimalBuffers(), adaptivePolicy{}, col)
	if net.numVC != maxVCs {
		t.Fatalf("torus runs %d VCs, want %d", net.numVC, maxVCs)
	}
	n := topo.NumTerminals()
	sent := 0
	eng.Schedule(0, func(e *sim.Engine) {
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					net.NICs[s].Send(e, topology.NodeID(d), 2048, MPISend, 0)
					sent++
				}
			}
		}
	})
	check := func() {
		t.Helper()
		ports := []*outPort{}
		for _, rt := range net.Routers {
			for p := range rt.out {
				ports = append(ports, &rt.out[p])
			}
		}
		for _, nic := range net.NICs {
			ports = append(ports, nic.out)
		}
		for _, o := range ports {
			if err := o.checkMasks(); err != nil {
				t.Fatalf("t=%v router %d port %d: %v", eng.Now(), o.router, o.port, err)
			}
			for vc := range o.vcs {
				for _, pd := range o.vcs[vc].parked {
					if pd.from.blocked&(1<<pd.fromVC) == 0 {
						t.Fatalf("t=%v: parked delivery from router %d port %d vc %d without a blocked credit",
							eng.Now(), pd.from.router, pd.from.port, pd.fromVC)
					}
				}
			}
		}
	}
	stalls := int64(0)
	for at := sim.Time(0); eng.Len() > 0; at += 5 * sim.Microsecond {
		eng.Run(at)
		check()
		stalls = net.Shards[0].creditsStalled
	}
	if stalls == 0 {
		t.Fatal("no credit stalls: the run never exercised backpressure")
	}
	delivered := int64(0)
	for _, nic := range net.NICs {
		delivered += nic.Delivered
	}
	if delivered != int64(sent) {
		t.Fatalf("delivered %d/%d messages", delivered, sent)
	}
}

// BenchmarkPortPump measures one packet through a router output port at 8
// VCs: enqueue, arbitration, transmission and delivery into the peer NIC,
// with several VCs occupied so the arbiter has to choose.
func BenchmarkPortPump(b *testing.B) {
	topo := topology.NewTorus(4, 4)
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.GenerateAcks = false
	net := MustNew(eng, topo, cfg, detPolicy{}, nil)
	if net.numVC != maxVCs {
		b.Fatalf("torus runs %d VCs, want %d", net.numVC, maxVCs)
	}
	// Router 0's terminal port: deliveries sink at NIC 0.
	rt := net.Routers[0]
	port := -1
	for p := range rt.out {
		if peer := topo.PortPeer(rt.ID, p); peer.IsTerminal() {
			port = p
			break
		}
	}
	if port < 0 {
		b.Fatal("router 0 has no terminal port")
	}
	o := &rt.out[port]
	sh := net.Shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += maxVCs {
		for vc := 0; vc < maxVCs; vc++ {
			// Pooled records: the sink NIC releases each one on arrival.
			p := sh.newPacket()
			p.Type, p.Src, p.Dst = DataPacket, 1, 0
			p.SizeBytes, p.MSPIndex, p.FragCount = cfg.PacketBytes, -1, 1
			o.enqueue(eng, p, vc)
		}
		eng.RunAll()
	}
}
