package main

import (
	"fmt"

	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// workload is one fixed simulation shape. A run of the benchmark builds it
// from the seed, installs its traffic and executes it to drain, repeatedly.
type workload struct {
	name string
	// shards selects the engine: 1 is the serial heap engine, more is a
	// ShardGroup of wheel engines. Fixed, so results do not depend on the
	// host. Sharded workloads are timed with the shards in line
	// (GOMAXPROCS=1), so their timings do not depend on the host's cores
	// either; the traced run's probe phase times them in parallel.
	shards int
	policy runner.Policy
	topo   func() topology.Topology
	// install schedules the traffic and returns the time injection ends;
	// runs execute to that plus drainAllowance. short shrinks the run for
	// tests; the benchmark never sets it.
	install func(s *runner.Sim, short bool) (sim.Time, error)
	// slice is the simulated stretch the traced run times the injection
	// window in (runner.slice_*): the host cost of a fixed stretch of
	// simulated time under load.
	slice sim.Time
}

// drainAllowance is added to the end of injection so every run drains: the
// engines stop at the last event, long before this horizon.
const drainAllowance = 100 * sim.Millisecond

var workloads = []workload{
	{
		// The scheduler, port pump and per-hop adaptive routing hot path:
		// no controllers, no allocation.
		name:   "ft64-adaptive-uniform",
		shards: 1,
		policy: runner.PolicyAdaptive,
		topo:   func() topology.Topology { return topology.NewKAryNTree(4, 3) },
		install: func(s *runner.Sim, short bool) (sim.Time, error) {
			// At 450 Mbps/node the mean latency neither grows with run
			// length nor swings between seeds (cv 5.6% over ten seeds;
			// 36% at 600 Mbps, where some seeds congest), so host cost
			// per event depends on neither.
			end := 40 * sim.Millisecond
			if short {
				end = 500 * sim.Microsecond
			}
			err := s.InstallPattern(runner.PatternSpec{Pattern: "uniform", RateMbps: 450, End: end})
			return end, err
		},
		slice: 100 * sim.Microsecond,
	},
	{
		// The paper's mechanism: repeated transpose bursts let PR-DRB save
		// and then reuse path solutions.
		name:   "ft64-prdrb-bursts",
		shards: 1,
		policy: runner.PolicyPRDRB,
		topo:   func() topology.Topology { return topology.NewKAryNTree(4, 3) },
		install: func(s *runner.Sim, short bool) (sim.Time, error) {
			// The Fig 4.17/4.18 shape at the heavy load point: 250 us
			// bursts, 300 us compute gaps, all 64 nodes.
			count := 48
			if short {
				count = 2
			}
			end, err := s.InstallBursts(runner.BurstSpec{
				Pattern: "transpose", RateMbps: 900,
				Len: 250 * sim.Microsecond, Gap: 300 * sim.Microsecond,
				Count: count,
			})
			return end, err
		},
		// One burst and its gap.
		slice: 550 * sim.Microsecond,
	},
	{
		// Scale and parallelism: 4096 controllers, churning heavy-tail
		// flows, shard windows, barriers and cross-shard rings.
		name:   "df4096-prdrb-heavytail",
		shards: 2,
		policy: runner.PolicyPRDRB,
		topo:   func() topology.Topology { return topology.NewDragonfly(16, 32, 8, 8) },
		install: func(s *runner.Sim, short bool) (sim.Time, error) {
			end := 300 * sim.Microsecond
			if short {
				end = 10 * sim.Microsecond
			}
			return end, s.InstallHeavyTail(heavyTailSpec(end))
		},
		slice: 10 * sim.Microsecond,
	},
}

// heavyTailSpec is the df4096 traffic: the BenchmarkScale4096 shape, cache
// flow sizes with 70% of flows inside their dragonfly group.
func heavyTailSpec(end sim.Time) runner.HeavyTailSpec {
	return runner.HeavyTailSpec{
		CDF: "cache", Pattern: "grouplocal", PLocal: 0.7,
		// One dragonfly group (a=16 routers of p=8 nodes), spelled out:
		// the runner derives the same width only from an unwrapped
		// *topology.Dragonfly, and the traced run wraps the topology.
		GroupSize: 16 * 8,
		LoadMbps:  100,
		OnMean:    50 * sim.Microsecond,
		End:       end,
	}
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// experiment is the runner configuration of the workload for one seed; a
// non-nil topology replaces the workload's own (the traced run passes a
// timing wrapper).
func (w *workload) experiment(seed uint64, topo topology.Topology) runner.Experiment {
	if topo == nil {
		topo = w.topo()
	}
	return runner.Experiment{Topology: topo, Policy: w.policy, Seed: seed, Shards: w.shards}
}
