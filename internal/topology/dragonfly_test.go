package topology

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestDragonflySizes(t *testing.T) {
	d := NewDragonfly(16, 32, 8, 8)
	if d.NumTerminals() != 4096 {
		t.Fatalf("df-16-32-8-8 terminals = %d, want 4096", d.NumTerminals())
	}
	if d.NumRouters() != 512 {
		t.Fatalf("df-16-32-8-8 routers = %d, want 512", d.NumRouters())
	}
	if d.Radix(0) != 31 {
		t.Fatalf("df-16-32-8-8 radix = %d, want 31", d.Radix(0))
	}
	if d.Name() != "df-16-32-8-8" {
		t.Fatalf("name = %q", d.Name())
	}
}

func TestDragonflyWiring(t *testing.T) {
	for _, d := range []*Dragonfly{
		NewDragonfly(2, 3, 1, 1),
		NewDragonfly(4, 5, 1, 2),
		NewDragonfly(4, 9, 2, 2),
		NewDragonfly(4, 4, 1, 1), // remainder 1 on even G: antipode circulant
		NewDragonfly(5, 4, 1, 1), // remainder 2
		NewDragonfly(16, 32, 8, 8),
	} {
		if err := Validate(d); err != nil {
			t.Errorf("%s: %v", d.Name(), err)
		}
		// Every distinct group pair gets at least one global link, and link
		// lists are mutually consistent: gi->gj and gj->gi describe the same
		// physical channels.
		for gi := 0; gi < d.G; gi++ {
			total := 0
			for gj := 0; gj < d.G; gj++ {
				if gi == gj {
					continue
				}
				fwd, rev := d.links(gi, gj), d.links(gj, gi)
				if len(fwd) == 0 {
					t.Fatalf("%s: no global link %d->%d", d.Name(), gi, gj)
				}
				if len(fwd) != len(rev) {
					t.Fatalf("%s: asymmetric link count %d->%d: %d vs %d", d.Name(), gi, gj, len(fwd), len(rev))
				}
				total += len(fwd)
			}
			if total != d.A*d.H {
				t.Fatalf("%s: group %d uses %d global endpoints, want %d", d.Name(), gi, total, d.A*d.H)
			}
		}
	}
}

// Dragonfly.Distance is the local-global-local routing metric: never
// shorter than the BFS shortest path (which may use deadlock-unsafe
// double-global shortcuts), never longer than 3, and exactly what the
// deterministic route walks.
func TestDragonflyDistanceBoundsBFS(t *testing.T) {
	for _, d := range []*Dragonfly{NewDragonfly(2, 3, 1, 1), NewDragonfly(4, 5, 1, 2), NewDragonfly(4, 4, 1, 1), NewDragonfly(4, 9, 2, 2)} {
		n := d.NumRouters()
		for src := RouterID(0); int(src) < n; src++ {
			dist := bfsFrom(d, src)
			for o := RouterID(0); int(o) < n; o++ {
				got := d.Distance(src, o)
				if got < dist[o] || got > 3 {
					t.Fatalf("%s: Distance(%d,%d) = %d, BFS %d", d.Name(), src, o, got, dist[o])
				}
				if (got == 0) != (src == o) {
					t.Fatalf("%s: Distance(%d,%d) = %d", d.Name(), src, o, got)
				}
			}
		}
	}
}

// bfsFrom computes true shortest router distances by breadth-first search
// over PortPeer, independent of the topology's own Distance.
func bfsFrom(topo Topology, src RouterID) []int {
	n := topo.NumRouters()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []RouterID{src}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for p := 0; p < topo.Radix(r); p++ {
			peer := topo.PortPeer(r, p)
			if peer.IsRouter() && dist[peer.Router] < 0 {
				dist[peer.Router] = dist[r] + 1
				queue = append(queue, peer.Router)
			}
		}
	}
	return dist
}

func TestDragonflyDiameterThree(t *testing.T) {
	d := NewDragonfly(4, 9, 2, 2)
	for a := RouterID(0); int(a) < d.NumRouters(); a++ {
		for b := RouterID(0); int(b) < d.NumRouters(); b++ {
			if dd := d.Distance(a, b); dd > 3 {
				t.Fatalf("Distance(%d,%d) = %d > 3", a, b, dd)
			}
		}
	}
}

func TestDragonflyRoutingIsMinimal(t *testing.T) {
	for _, d := range []*Dragonfly{NewDragonfly(4, 5, 1, 2), NewDragonfly(4, 4, 1, 1), NewDragonfly(4, 9, 2, 2)} {
		n := d.NumTerminals()
		for s := 0; s < n; s++ {
			for dst := 0; dst < n; dst++ {
				if s == dst {
					continue
				}
				sr, _ := d.TerminalAttach(NodeID(s))
				dr, _ := d.TerminalAttach(NodeID(dst))
				hops := walk(d, NodeID(s), NodeID(dst))
				if hops != d.Distance(sr, dr) {
					t.Fatalf("%s: %d->%d took %d hops, distance %d", d.Name(), s, dst, hops, d.Distance(sr, dr))
				}
			}
		}
	}
}

func TestDragonflyGlobalLinksAreDatelines(t *testing.T) {
	d := NewDragonfly(4, 5, 1, 2)
	for r := RouterID(0); int(r) < d.NumRouters(); r++ {
		for p := 0; p < d.Radix(r); p++ {
			dim, wrap := d.LinkDim(r, p)
			peer := d.PortPeer(r, p)
			switch {
			case !peer.IsRouter():
				if dim != -1 {
					t.Fatalf("terminal port r%d p%d has dim %d", r, p, dim)
				}
			case d.Group(peer.Router) == d.Group(r):
				if dim != 0 || wrap {
					t.Fatalf("local port r%d p%d: dim=%d wrap=%v", r, p, dim, wrap)
				}
			default:
				if dim != 0 || !wrap {
					t.Fatalf("global port r%d p%d: dim=%d wrap=%v, want dateline", r, p, dim, wrap)
				}
			}
		}
	}
}

func TestDragonflyAlternativePathsDiverse(t *testing.T) {
	d := NewDragonfly(4, 9, 2, 2)
	// Inter-group pair: alternatives must include at least one Valiant
	// detour through a third group, and every path must deliver.
	src, dst := NodeID(0), NodeID(d.NumTerminals()-1)
	paths := d.AlternativePaths(src, dst, 8)
	if len(paths) < 4 {
		t.Fatalf("only %d alternative paths for %d->%d", len(paths), src, dst)
	}
	sr, _ := d.TerminalAttach(src)
	dr, _ := d.TerminalAttach(dst)
	thirdGroup := false
	for _, p := range paths {
		if !followMSP(d, src, dst, p) {
			t.Fatalf("path %v does not deliver", p)
		}
		for _, w := range p {
			if g := d.Group(w); g != d.Group(sr) && g != d.Group(dr) {
				thirdGroup = true
			}
		}
	}
	if !thirdGroup {
		t.Fatalf("no Valiant third-group detour among %v", paths)
	}
}

func TestDragonflyConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewDragonfly(1, 3, 1, 1) }, // a too small
		func() { NewDragonfly(4, 1, 1, 1) }, // g too small
		func() { NewDragonfly(2, 4, 1, 0) }, // no terminals
		func() { NewDragonfly(2, 8, 1, 1) }, // a*h < g-1
		func() { NewDragonfly(3, 3, 1, 1) }, // odd remainder, odd G
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: constructor did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDragonflyLabels(t *testing.T) {
	d := NewDragonfly(4, 5, 1, 2)
	if got := d.RouterLabel(d.RouterAt(3, 2)); got != "G03.R02" {
		t.Fatalf("label = %q", got)
	}
	seen := map[string]bool{}
	for r := RouterID(0); int(r) < d.NumRouters(); r++ {
		l := d.RouterLabel(r)
		if seen[l] {
			t.Fatalf("duplicate label %q", l)
		}
		seen[l] = true
	}
}

func TestDragonflyScaleConstruction(t *testing.T) {
	// The 4096-node canonical shape must construct quickly with O(ports)
	// state and answer spot routing queries; no all-pairs structures.
	d := NewDragonfly(16, 32, 8, 8)
	for s := 0; s < d.NumTerminals(); s += 97 {
		dst := NodeID((s*2654435761 + 1) % d.NumTerminals())
		if NodeID(s) == dst {
			continue
		}
		if walk(d, NodeID(s), dst) < 0 {
			t.Fatalf("4096-node route %d->%d failed", s, dst)
		}
		for _, p := range d.AlternativePaths(NodeID(s), dst, 6) {
			if !followMSP(d, NodeID(s), dst, p) {
				t.Fatalf("4096-node MSP %v for %d->%d failed", p, s, dst)
			}
		}
	}
}

func BenchmarkDragonflyConstruct4096(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDragonfly(16, 32, 8, 8)
		if d.NumTerminals() != 4096 {
			b.Fatal("bad shape")
		}
	}
}

func ExampleDragonfly_RouterLabel() {
	d := NewDragonfly(4, 5, 1, 2)
	fmt.Println(d.RouterLabel(0), d.RouterLabel(19))
	// Output: G00.R00 G04.R03
}

// refDragonflyAlternativePaths is the enumeration AlternativePaths had
// before it scored candidates in place: every candidate built as its own
// Path, sort.SliceStable on (cost, tie), winners deduplicated in order.
func refDragonflyAlternativePaths(d *Dragonfly, src, dst NodeID, max int) []Path {
	sr, _ := d.TerminalAttach(src)
	dr, _ := d.TerminalAttach(dst)
	if sr == dr || max <= 0 {
		return nil
	}
	gs, gd := d.Group(sr), d.Group(dr)
	direct := d.Distance(sr, dr)
	type cand struct {
		p    Path
		cost int
		tie  int
	}
	var cands []cand
	add := func(p Path, tie int) {
		cost := 0
		at := sr
		for _, w := range append(append(Path{}, p...), dr) {
			cost += d.Distance(at, w)
			at = w
		}
		if cost > 2*direct+2 {
			return
		}
		cands = append(cands, cand{p: p, cost: cost, tie: tie})
	}
	if gs == gd {
		for i := 0; i < d.A; i++ {
			w := d.RouterAt(gs, (i+int(src))%d.A)
			if w == sr || w == dr {
				continue
			}
			add(Path{w}, i)
		}
	} else {
		ls := d.links(gs, gd)
		chosen, _ := d.routeLink(sr, gs, gd, dr)
		for i := range ls {
			l := ls[(i+int(src))%len(ls)]
			if l == chosen {
				continue
			}
			if l.src == sr {
				add(Path{l.dst}, i)
			} else {
				add(Path{l.src, l.dst}, i)
			}
		}
		for i := 0; i < d.G; i++ {
			gv := (gd + 1 + i + int(src)) % d.G
			if gv == gs || gv == gd {
				continue
			}
			vls := d.links(gs, gv)
			w := vls[int(src)%len(vls)].dst
			add(Path{w}, len(ls)+i)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].tie < cands[j].tie
	})
	var out []Path
	for _, c := range cands {
		if containsPath(out, c.p) {
			continue
		}
		out = append(out, c.p)
		if len(out) >= max {
			break
		}
	}
	return out
}

func checkAltPathsMatch(t *testing.T, d *Dragonfly, src, dst NodeID, max int) {
	t.Helper()
	got := d.AlternativePaths(src, dst, max)
	want := refDragonflyAlternativePaths(d, src, dst, max)
	if (got == nil) != (want == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s %d->%d max=%d: got %v, want %v", d.Name(), src, dst, max, got, want)
	}
	for i, p := range got {
		if cap(p) != len(p) {
			t.Fatalf("%s %d->%d: path %d has spare capacity %d > %d: appends would overwrite its neighbour",
				d.Name(), src, dst, i, cap(p), len(p))
		}
	}
}

// TestDragonflyAlternativePathsMatchReference pins the in-place candidate
// scoring to the enumeration it replaced: every pair of a small dragonfly
// (group-local and inter-group, remainder links, several budgets), a
// seeded sample of df-16-32-8-8 pairs at the controller budgets, and a
// 70-group shape whose Valiant candidates overflow the stack array.
func TestDragonflyAlternativePathsMatchReference(t *testing.T) {
	small := NewDragonfly(4, 9, 3, 2)
	for s := 0; s < small.NumTerminals(); s++ {
		for dst := 0; dst < small.NumTerminals(); dst++ {
			for _, max := range []int{0, 1, 3, 8, 64} {
				checkAltPathsMatch(t, small, NodeID(s), NodeID(dst), max)
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	for _, d := range []*Dragonfly{NewDragonfly(16, 32, 8, 8), NewDragonfly(10, 70, 7, 1)} {
		n := d.NumTerminals()
		for i := 0; i < 3000; i++ {
			src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if i%4 == 0 {
				// Bias a quarter of the sample toward group-local pairs.
				dst = NodeID(int(src)/(d.A*d.P)*(d.A*d.P) + rng.Intn(d.A*d.P))
			}
			for _, max := range []int{4, 8, 16} {
				checkAltPathsMatch(t, d, src, dst, max)
			}
		}
	}
}

// TestDragonflyAlternativePathsAllocs bounds an enumeration at two
// allocations — the path headers and their shared waypoint array — for
// inter-group and group-local pairs of the 4096-node shape.
func TestDragonflyAlternativePathsAllocs(t *testing.T) {
	d := NewDragonfly(16, 32, 8, 8)
	for _, pair := range [][2]NodeID{{0, 4095}, {0, 100}, {1234, 77}} {
		allocs := testing.AllocsPerRun(100, func() {
			d.AlternativePaths(pair[0], pair[1], 16)
		})
		if allocs > 2 {
			t.Errorf("AlternativePaths(%d, %d, 16): %.1f allocs per call, want <= 2", pair[0], pair[1], allocs)
		}
	}
}
