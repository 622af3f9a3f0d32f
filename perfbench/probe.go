package main

import (
	"runtime"

	"prdrb/internal/sim"
)

// shardProbe is the benchmark's sim.GroupProbe. It times each shard from
// that shard's own start: when shards run in line on the coordinator
// (GOMAXPROCS=1) a shard starts where the previous one finished, so shard i
// is never charged the run time of shards 0..i-1. When shards run as
// goroutines a shard starts at WindowExec, the moment it is spawned. Either
// way a shard's busy plus idle time is the window's execution wall, so the
// totals over shards add up to shards × window wall.
type shardProbe struct {
	procs  int  // GOMAXPROCS when the probe was made
	inline bool // shards execute one after another on the coordinator
	// Per-window state. winBusy[i] and winEvents[i] are written only by
	// shard i's ShardDone; the coordinator reads them after the join that
	// precedes BarrierStart.
	execStart, lastDone, flushAt int64
	winBusy                      []int64
	winEvents                    []uint64
	// Totals over the run.
	windows         int64
	events          uint64
	remote          int64
	execNs, flushNs int64
	busy, idle      []int64
}

// newShardProbe makes a probe for a group run at the current GOMAXPROCS.
func newShardProbe(shards int) *shardProbe {
	procs := runtime.GOMAXPROCS(0)
	return &shardProbe{
		procs:     procs,
		inline:    procs == 1,
		winBusy:   make([]int64, shards),
		winEvents: make([]uint64, shards),
		busy:      make([]int64, shards),
		idle:      make([]int64, shards),
	}
}

func (p *shardProbe) WindowStart(_, _ sim.Time) { p.windows++ }

func (p *shardProbe) WindowExec() {
	p.execStart = nanotime()
	p.lastDone = p.execStart
}

func (p *shardProbe) ShardDone(shard int, events uint64) {
	now := nanotime()
	if p.inline {
		p.winBusy[shard] = now - p.lastDone
		p.lastDone = now
	} else {
		p.winBusy[shard] = now - p.execStart
	}
	p.winEvents[shard] = events
}

func (p *shardProbe) BarrierStart(sim.Time) {
	wall := nanotime() - p.execStart
	p.execNs += wall
	for i, b := range p.winBusy {
		p.busy[i] += b
		p.idle[i] += wall - b
		p.events += p.winEvents[i]
	}
}

func (p *shardProbe) FlushStart() { p.flushAt = nanotime() }

func (p *shardProbe) WindowEnd(remoteRecords int) {
	p.flushNs += nanotime() - p.flushAt
	p.remote += int64(remoteRecords)
}

// concurrency reports whether the shards could all run at once. With fewer
// Ps or cores than shards they take turns, so idle time is time spent
// waiting for a core, not for the barrier, and no barrier-wait or
// imbalance figure is meaningful.
func (p *shardProbe) concurrency() string {
	if p.procs < len(p.busy) || runtime.NumCPU() < len(p.busy) {
		return "sequential"
	}
	return "parallel"
}

// imbalance is the busiest shard's busy time over the mean.
func (p *shardProbe) imbalance() float64 {
	var max, sum int64
	for _, b := range p.busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(p.busy)) / float64(sum)
}

// idleTotal is the shard-time spent waiting at barriers, over all shards.
func (p *shardProbe) idleTotal() int64 {
	var t int64
	for _, v := range p.idle {
		t += v
	}
	return t
}
