package network

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// sinkPeer accepts every delivery and logs "id@now".
type sinkPeer struct{ log []string }

func (s *sinkPeer) accept(e *sim.Engine, pkt *Packet, _ *outPort, _ int) bool {
	s.log = append(s.log, fmt.Sprintf("%d@%d", pkt.ID, e.Now()))
	return true
}

// lonePort is an injection-style port (no router, so no contention
// monitoring) on its own engine, delivering into a sink.
func lonePort() (*outPort, *sinkPeer, *sim.Engine) {
	e := sim.NewEngine()
	n := &Network{Cfg: DefaultConfig()}
	sink := &sinkPeer{}
	o := &outPort{
		net: n, sh: &Shard{Eng: e, net: n}, router: topology.None,
		vcs: make([]vcQueue, numClasses), vcCap: 1 << 20, peer: sink,
		txExtra: n.Cfg.LinkDelay,
	}
	return o, sink, e
}

func (o *outPort) sendAt(e *sim.Engine, at sim.Time, id uint64, vc int) {
	e.Schedule(at, func(e *sim.Engine) {
		o.enqueue(e, &Packet{ID: id, SizeBytes: o.net.Cfg.PacketBytes}, vc)
	})
}

// TestReservedReleaseKeepsDepartureOrder: packets enqueued at exactly the
// release time serEnd, by one event ordered before the reserved release
// slot and one ordered after it, leave in the order the eager release
// event gave them. The first, alone ready when the release fires, leaves
// at serEnd even though the round-robin pointer favours the second's VC.
func TestReservedReleaseKeepsDepartureOrder(t *testing.T) {
	o, sink, e := lonePort()
	cfg := &o.net.Cfg
	ser := cfg.SerializationTime(cfg.PacketBytes)
	cut := cfg.SerializationTime(cfg.HeaderBytes)
	hop := cut + o.txExtra
	// Scheduled before the first packet's delivery reserves the release:
	// ordered before the slot.
	o.sendAt(e, ser, 2, 0)
	// Transmits now; rr then points past VC 1, at VC 2.
	o.enqueue(e, &Packet{ID: 1, SizeBytes: cfg.PacketBytes}, 1)
	// Scheduled from an event after the delivery (same time, later seq):
	// ordered after the slot.
	e.Schedule(hop, func(e *sim.Engine) {
		if !o.rsv {
			t.Error("delivery with nothing ready did not reserve the release")
		}
		o.sendAt(e, ser, 3, 2)
	})
	e.RunAll()
	want := []string{
		fmt.Sprintf("1@%d", hop),
		fmt.Sprintf("2@%d", ser+hop),
		fmt.Sprintf("3@%d", 2*ser+hop),
	}
	if !reflect.DeepEqual(sink.log, want) {
		t.Fatalf("deliveries %v, want %v", sink.log, want)
	}
}

// TestLoadCountsInflightUntilRelease: adaptive routing's load() counts the
// in-flight packet up to the reserved release and not after it, although
// the lazy port only drops busy when next pumped.
func TestLoadCountsInflightUntilRelease(t *testing.T) {
	o, _, e := lonePort()
	cfg := &o.net.Cfg
	ser := cfg.SerializationTime(cfg.PacketBytes)
	var got []string
	probe := func(at sim.Time, tag string) {
		e.Schedule(at, func(e *sim.Engine) { got = append(got, fmt.Sprintf("%s:%d", tag, o.load())) })
	}
	probe(ser, "before") // ordered before the slot reserved at delivery
	o.enqueue(e, &Packet{ID: 1, SizeBytes: cfg.PacketBytes}, 0)
	probe(ser-1, "early")
	e.Schedule(cfg.SerializationTime(cfg.HeaderBytes)+o.txExtra, func(e *sim.Engine) {
		probe(ser, "after") // ordered after the slot
	})
	probe(ser+1, "late")
	e.RunAll()
	pb := cfg.PacketBytes
	want := []string{fmt.Sprintf("early:%d", pb), fmt.Sprintf("before:%d", pb), "after:0", "late:0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("load %v, want %v", got, want)
	}
	if !o.busy || !o.rsv {
		t.Fatal("the release should still be held as a reservation")
	}
	if o.linkHeld() {
		t.Fatal("linkHeld after the reserved release passed")
	}
}

// TestSinglePacketRunEndsAtLastRelease: a single-message serial run's
// clock ends at its last link release — the slot the release event would
// have fired in — not at its last executed event.
func TestSinglePacketRunEndsAtLastRelease(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), nil)
	e := n.Eng
	var delivered sim.Time
	n.NICs[15].OnMessage = func(e *sim.Engine, _ topology.NodeID, _ uint64, _ int, _ uint8, _ uint32) {
		delivered = e.Now()
	}
	e.Schedule(0, func(e *sim.Engine) { n.NICs[0].Send(e, 15, 1024, MPISend, 0) })
	e.RunAll()
	last := sim.Time(0)
	for _, rt := range n.Routers {
		for p := range rt.out {
			last = max(last, rt.out[p].serEnd)
		}
	}
	for _, nic := range n.NICs {
		last = max(last, nic.out.serEnd)
	}
	if delivered == 0 || last <= delivered {
		t.Fatalf("delivery at %v, last release at %v: the run should outlast its delivery", delivered, last)
	}
	if e.Now() != last {
		t.Fatalf("run ended at %v, want the last link release %v", e.Now(), last)
	}
}

// TestOutPortSize pins the port record at 176 bytes: the reservation rides
// in the spare flag byte and the width freed by int32 linkDim and port.
func TestOutPortSize(t *testing.T) {
	if got := unsafe.Sizeof(outPort{}); got != 176 {
		t.Fatalf("outPort is %d bytes, want 176", got)
	}
}
