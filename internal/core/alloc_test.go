package core

import (
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// TestMetapathAllocs pins the controller's allocation budget: opening the
// metapath of a new destination is one allocation (the record, with the
// direct path inline and no evidence map yet), and a steady-state
// PrepareInjection + HandleAck pair on a single-path metapath without
// contending flows allocates nothing.
func TestMetapathAllocs(t *testing.T) {
	topo := topology.NewMesh(16, 16)
	eng := sim.NewEngine()
	ctl := New(0, topo, eng, PRDRBConfig(), sim.NewRNG(1))
	// Pre-size the metapath map so its growth is not counted.
	ctl.mps = make(map[topology.NodeID]*metapath, topo.NumTerminals())

	pkt := &network.Packet{Type: network.DataPacket, Src: 0}
	dst := topology.NodeID(0)
	first := testing.AllocsPerRun(200, func() {
		dst++
		*pkt = network.Packet{Type: network.DataPacket, Src: 0, Dst: dst}
		ctl.PrepareInjection(eng, pkt)
	})
	if first != 1 {
		t.Errorf("first PrepareInjection to a new destination: %.2f allocs, want 1", first)
	}

	ack := &network.Packet{Type: network.AckPacket, Dst: 0}
	steady := testing.AllocsPerRun(200, func() {
		*pkt = network.Packet{Type: network.DataPacket, Src: 0, Dst: 1}
		ctl.PrepareInjection(eng, pkt)
		*ack = network.Packet{Type: network.AckPacket, Src: 1, Dst: 0,
			MSPIndex: pkt.MSPIndex, PathLatency: 100 * sim.Nanosecond}
		ctl.HandleAck(eng, ack)
	})
	if steady != 0 {
		t.Errorf("steady-state PrepareInjection + HandleAck: %.2f allocs, want 0", steady)
	}
	if n := ctl.PathCount(1); n != 1 {
		t.Fatalf("metapath toward 1 has %d paths, want the direct path only", n)
	}
}
