package main

import (
	"reflect"
	"testing"

	"prdrb/internal/core"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

var (
	_ topology.Topology        = tracedTopology{}
	_ network.RouterPolicy     = tracedPolicy{}
	_ network.FailureAware     = tracedLossSource{}
	_ network.SourceController = (*tracedSource)(nil)
)

// argsFor builds valid arguments for a topology method from its parameter
// types: node 5 and node 40, the router node 5 attaches to, and a waypoint
// of one of its alternative paths to node 40.
func argsFor(t *testing.T, topo topology.Topology, m reflect.Method) []reflect.Value {
	src, dst := topology.NodeID(5), topology.NodeID(40)
	from, _ := topo.TerminalAttach(src)
	via, _ := topo.TerminalAttach(dst)
	if paths := topo.AlternativePaths(src, dst, 1); len(paths) > 0 && len(paths[0]) > 0 {
		via = paths[0][0]
	}
	var args []reflect.Value
	for i := 0; i < m.Type.NumIn(); i++ {
		switch in := m.Type.In(i); in {
		case reflect.TypeOf(topology.RouterID(0)):
			args = append(args, reflect.ValueOf([]topology.RouterID{from, via}[i]))
		case reflect.TypeOf(topology.NodeID(0)):
			args = append(args, reflect.ValueOf([]topology.NodeID{src, dst}[i]))
		case reflect.TypeOf(0):
			args = append(args, reflect.ValueOf(2))
		case reflect.TypeOf([]int(nil)):
			args = append(args, reflect.ValueOf(make([]int, 0, 64)))
		default:
			t.Fatalf("%s: no test argument for parameter type %v", m.Name, in)
		}
	}
	return args
}

// TestTopologyWrapperForwardsEveryMethod calls every topology.Topology
// method through the wrapper and directly, on each workload's topology: the
// answers must agree, and every call but Name must record one span.
func TestTopologyWrapperForwardsEveryMethod(t *testing.T) {
	iface := reflect.TypeOf((*topology.Topology)(nil)).Elem()
	for _, w := range workloads {
		inner := w.topo()
		tr := newTracer(0)
		wrapped := tracedTopology{inner: inner, t: tr}
		for i := 0; i < iface.NumMethod(); i++ {
			m := iface.Method(i)
			args := argsFor(t, inner, m)
			before := tr.calls[layerTopology]
			got := reflect.ValueOf(wrapped).MethodByName(m.Name).Call(args)
			want := reflect.ValueOf(inner).MethodByName(m.Name).Call(argsFor(t, inner, m))
			for j := range want {
				if !reflect.DeepEqual(got[j].Interface(), want[j].Interface()) {
					t.Errorf("%s %s: wrapper returned %v, topology %v", w.name, m.Name, got[j], want[j])
				}
			}
			spans := tr.calls[layerTopology] - before
			if wantSpans := int64(1); m.Name == "Name" {
				if spans != 0 {
					t.Errorf("%s Name: recorded %d spans, want 0", w.name, spans)
				}
			} else if spans != wantSpans {
				t.Errorf("%s %s: recorded %d spans, want %d", w.name, m.Name, spans, wantSpans)
			}
		}
		if len(tr.stack) != 0 {
			t.Fatalf("%s: %d spans left open", w.name, len(tr.stack))
		}
	}
}

// plainSource is a controller without network.FailureAware.
type plainSource struct{ prepared, acked int }

func (p *plainSource) Name() string                                  { return "plain" }
func (p *plainSource) PrepareInjection(*sim.Engine, *network.Packet) { p.prepared++ }
func (p *plainSource) HandleAck(*sim.Engine, *network.Packet)        { p.acked++ }

// TestSourceWrapperForwardsInterfaces checks that a wrapped controller
// implements network.FailureAware exactly when the controller does, keeps
// nil as nil, and times each entry point under its own layer.
func TestSourceWrapperForwardsInterfaces(t *testing.T) {
	tr := newTracer(0)
	if wrapSource(nil, tr) != nil {
		t.Fatal("a NIC without a controller must stay without one")
	}
	plain := &plainSource{}
	ws := wrapSource(plain, tr)
	if _, ok := ws.(network.FailureAware); ok {
		t.Fatal("wrapper of a controller without FailureAware implements it")
	}
	ws.PrepareInjection(nil, nil)
	ws.HandleAck(nil, nil)
	if plain.prepared != 1 || plain.acked != 1 || ws.Name() != "plain" {
		t.Fatalf("calls not forwarded: %+v name %q", plain, ws.Name())
	}
	if tr.calls[layerCorePrepare] != 1 || tr.calls[layerCoreAck] != 1 {
		t.Fatalf("spans prepare=%d ack=%d, want 1 each", tr.calls[layerCorePrepare], tr.calls[layerCoreAck])
	}

	var ctl network.SourceController = &core.Controller{}
	if _, ok := ctl.(network.FailureAware); !ok {
		t.Fatal("core.Controller no longer implements FailureAware; revisit wrapSource")
	}
	if _, ok := wrapSource(ctl, tr).(network.FailureAware); !ok {
		t.Fatal("wrapper of a core.Controller hides FailureAware")
	}
}

// TestSpanSelfTimeNetOfChildren nests a topology span in a routing span
// and checks the accounting: the parent's duration is its self time plus
// the child's duration, the child reports its parent's ID, and the sample
// keeps both.
func TestSpanSelfTimeNetOfChildren(t *testing.T) {
	tr := newTracer(8)
	tr.begin(layerRouting)
	tr.begin(layerTopology)
	for i := 0; i < 1000; i++ {
		_ = nanotime()
	}
	tr.end()
	tr.end()
	if len(tr.sample) != 2 {
		t.Fatalf("sample has %d spans, want 2", len(tr.sample))
	}
	child, parent := tr.sample[0], tr.sample[1]
	if child.Parent != parent.ID || parent.Parent != 0 {
		t.Fatalf("child parent=%d, parent id=%d parent=%d", child.Parent, parent.ID, parent.Parent)
	}
	if got, want := tr.selfNs[layerRouting]+tr.selfNs[layerTopology], parent.End-parent.Start; got != want {
		t.Fatalf("self times sum to %d ns, parent span lasted %d ns", got, want)
	}
	if tr.selfNs[layerTopology] != child.End-child.Start {
		t.Fatalf("leaf self %d ns, its span lasted %d ns", tr.selfNs[layerTopology], child.End-child.Start)
	}
	if tr.children[layerRouting] != 1 || tr.children[layerTopology] != 0 {
		t.Fatalf("children routing=%d topology=%d, want 1 and 0", tr.children[layerRouting], tr.children[layerTopology])
	}
}

// TestSpanSampleStaysBounded checks that the raw-span sample never grows
// past its capacity and thins evenly across the run.
func TestSpanSampleStaysBounded(t *testing.T) {
	tr := newTracer(64)
	for i := 0; i < 10000; i++ {
		tr.begin(layerRouting)
		tr.end()
	}
	if len(tr.sample) > 64 || cap(tr.sample) != 64 {
		t.Fatalf("sample len %d cap %d, want at most 64 in a 64 buffer", len(tr.sample), cap(tr.sample))
	}
	if len(tr.sample) < 32 {
		t.Fatalf("sample kept only %d spans", len(tr.sample))
	}
	for i := 1; i < len(tr.sample); i++ {
		if gap := tr.sample[i].ID - tr.sample[i-1].ID; gap != tr.stride {
			t.Fatalf("span IDs %d and %d are %d apart, want the stride %d", tr.sample[i-1].ID, tr.sample[i].ID, gap, tr.stride)
		}
	}
}
