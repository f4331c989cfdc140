package main

import (
	"fmt"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/dht"
	"commtopk/internal/gen"
	"commtopk/internal/mailbox"
	"commtopk/internal/qsel"
	"commtopk/internal/treap"
	"commtopk/internal/xrand"
)

// The layer probes feed a layer's public functions directly, with the
// inputs the workloads give it, and are the same in every traced run:
// they do not depend on the workload, so a change in one of them between
// two commits is the layer's own.

const (
	probeReps      = 9   // every probe reports the median of this many timings
	probeCalls     = 200 // collective and dispatch probes time this many calls at once
	probeSeed      = 1009
	probeFatShard  = 1 << 16 // one serve-kth-fat shard
	probeWindow    = 1 << 13 // qsel's in-place bucket window
	probeTreapKeys = 1 << 16
	probeZipfLen   = 1 << 15
)

// prober runs the layer probes of one traced run.
type prober struct {
	c     *runCtx
	reps  int // timings per probe; the median is reported
	calls int // calls timed at once by the collective and dispatch probes
}

// time runs f reps times under the watchdog, each a span of the probe
// phase, and returns the median in nanoseconds. prep, if not nil, runs
// untimed before every f.
func (pb prober) time(layer, name string, prep, f func()) float64 {
	times := make([]float64, pb.reps)
	for i := range times {
		if prep != nil {
			prep()
		}
		pb.c.wd.begin()
		times[i] = pb.c.timed(0, 0, "probe", layer, name, f) * 1e6
		pb.c.wd.end()
	}
	return median(times)
}

func (pb prober) set(name string, value float64) { pb.c.set(name, value, pb.reps) }

// runProbes measures every workload-independent per-layer metric. A probe
// whose answer is wrong fails the (ungated) probes phase.
func runProbes(c *runCtx) error {
	pb := prober{c: c, reps: c.opts.reps(probeReps, 3), calls: c.opts.reps(probeCalls, 10)}
	ph := c.phase("probes", false)
	for _, f := range []func(prober) error{probeQsel, probeColl, probeComm, probeMailbox, probeTreap, probeDHT} {
		ph.attempt()
		if err := f(pb); err != nil {
			c.fail(ph, "%v", err)
			continue
		}
		ph.success()
	}
	return nil
}

func probeQsel(pb prober) error {
	c := pb.c
	n := c.opts.div(probeFatShard, 1024)
	rng := xrand.New(probeSeed)
	src := make([]uint64, n)
	for i := range src {
		src[i] = rng.Uint64()
	}
	sorted := slices.Clone(src)
	slices.Sort(sorted)
	work := make([]uint64, n)
	perElem := float64(n)

	var got uint64
	k := n / 3
	pb.set("qsel.selectinto_ns_per_elem", pb.time("qsel", "selectinto", nil, func() { got = qsel.SelectInto(work, src, k) })/perElem)
	if got != sorted[k] {
		return fmt.Errorf("qsel.SelectInto(%d) = %d, want %d", k, got, sorted[k])
	}
	pb.set("qsel.copy_ns_per_elem", pb.time("qsel", "copy", nil, func() { copy(work, src) })/perElem)

	// PartitionRange works in place: copy outside the timed call.
	lo, hi := sorted[n/4], sorted[3*n/4]
	var na, nb int
	pb.set("qsel.partition_ns_per_elem", pb.time("qsel", "partition",
		func() { copy(work, src) },
		func() { na, nb = qsel.PartitionRange(work, lo, hi) })/perElem)
	if na != n/4 || nb != 3*n/4-n/4+1 {
		return fmt.Errorf("qsel.PartitionRange bands = (%d, %d), want (%d, %d)", na, nb, n/4, 3*n/4-n/4+1)
	}

	var below, equal int
	pb.set("qsel.rank_ns_per_elem", pb.time("qsel", "rank", nil, func() { below, equal = qsel.Rank(src, sorted[k]) })/perElem)
	if below != k || equal != 1 {
		return fmt.Errorf("qsel.Rank = (%d, %d), want (%d, 1)", below, equal, k)
	}

	// Select works in place on the bucket window.
	w := c.opts.div(probeWindow, 512)
	win := make([]uint64, w)
	sortedWin := slices.Clone(src[:w])
	slices.Sort(sortedWin)
	pb.set("qsel.select_ns_per_elem", pb.time("qsel", "select",
		func() { copy(win, src[:w]) },
		func() { got = qsel.Select(win, w/2) })/float64(w))
	if got != sortedWin[w/2] {
		return fmt.Errorf("qsel.Select(%d) = %d, want %d", w/2, got, sortedWin[w/2])
	}
	return nil
}

// probeColl times probeCalls collectives of one word per PE (or pair)
// inside one blocking Machine.Run at p = 16, where w = p.
func probeColl(pb prober) error {
	c := pb.c
	m := comm.NewMachine(comm.DefaultConfig(batchP)) // left to its finalizer, see servingInst.close
	c.machine("probe coll", batchP, m.Workers())
	var runErr error
	run := func(name string, body func(pe *comm.PE)) {
		ns := pb.time("coll", name, nil, func() {
			if err := m.Run(func(pe *comm.PE) {
				for i := 0; i < pb.calls; i++ {
					body(pe)
				}
			}); err != nil && runErr == nil {
				runErr = fmt.Errorf("coll probe %s: %w", name, err)
			}
		})
		pb.set("coll."+name+"_us", ns/1e3/float64(pb.calls))
	}
	sumU64 := func(a, b uint64) uint64 { return a + b }
	run("barrier", func(pe *comm.PE) { coll.Barrier(pe) })
	run("allreduce_scalar", func(pe *comm.PE) { coll.AllReduceScalar(pe, uint64(pe.Rank()), sumU64) })
	run("broadcast_scalar", func(pe *comm.PE) { coll.BroadcastScalar(pe, 0, uint64(7)) })
	run("exscan_sum", func(pe *comm.PE) { coll.ExScanSum(pe, int64(pe.Rank())) })
	word := make([][]uint64, batchP) // one word per PE, allocated once
	pairs := make([][][]uint64, batchP)
	for r := range word {
		word[r] = []uint64{uint64(r)}
		pairs[r] = make([][]uint64, batchP)
		for d := range pairs[r] {
			pairs[r][d] = word[r]
		}
	}
	run("allgatherv", func(pe *comm.PE) { coll.AllGatherv(pe, word[pe.Rank()]) })
	run("alltoall", func(pe *comm.PE) { coll.AllToAll(pe, pairs[pe.Rank()]) })
	return runErr
}

// emptyStepper is a body that is done at its first step.
var emptyStepper = comm.StepFunc(func(*comm.PE) *comm.RecvHandle { return nil })

func probeComm(pb prober) error {
	c := pb.c
	var runErr error
	keep := func(what string, err error) {
		if err != nil && runErr == nil {
			runErr = fmt.Errorf("comm probe %s: %w", what, err)
		}
	}
	// Dispatch cost at p = 64 (w < p): bodies that never block.
	wide := comm.NewMachine(comm.DefaultConfig(servingThin.p))
	c.machine("probe comm dispatch", servingThin.p, wide.Workers())
	empty := func(*comm.PE) {}
	start := func(*comm.PE) comm.Stepper { return emptyStepper }
	perCall := 1e3 * float64(pb.calls)
	pb.set("comm.run_empty_us", pb.time("comm", "run_empty", nil, func() {
		for i := 0; i < pb.calls; i++ {
			keep("run_empty", wide.Run(empty))
		}
	})/perCall)
	pb.set("comm.runasync_empty_us", pb.time("comm", "runasync_empty", nil, func() {
		for i := 0; i < pb.calls; i++ {
			keep("runasync_empty", wide.RunAsync(start))
		}
	})/perCall)

	// Point-to-point at p = 16 (w = p: the bodies block).
	m := comm.NewMachine(comm.DefaultConfig(batchP))
	c.machine("probe comm p2p", batchP, m.Workers())
	const tag = comm.Tag(0x0b00)
	pb.set("comm.pingpong_us", pb.time("comm", "pingpong", nil, func() {
		keep("pingpong", m.Run(func(pe *comm.PE) {
			for i := 0; i < pb.calls; i++ {
				switch pe.Rank() {
				case 0:
					pe.Send(1, tag, nil, 1)
					pe.Recv(1, tag)
				case 1:
					pe.Recv(0, tag)
					pe.Send(0, tag, nil, 1)
				}
			}
		}))
	})/perCall)
	ringNs := pb.time("comm", "ring", nil, func() {
		keep("ring", m.Run(func(pe *comm.PE) {
			r, p := pe.Rank(), pe.P()
			for i := 0; i < pb.calls; i++ {
				pe.Send((r+1)%p, tag, nil, 1)
				pe.Recv((r+p-1)%p, tag)
			}
		}))
	})
	pb.set("comm.ring_msgs_per_s", float64(batchP*pb.calls)/(ringNs/1e9))

	pb.set("comm.newmachine_ms", pb.time("comm", "newmachine", nil, func() {
		comm.NewMachine(comm.DefaultConfig(servingThin.p)).Close()
	})/1e6)
	return runErr
}

func probeMailbox(pb prober) error {
	const puts = 1 << 14
	b := mailbox.New()
	taken := 0
	pb.set("mailbox.put_take_ns", pb.time("mailbox", "put_take", nil, func() {
		for i := 0; i < puts; i++ {
			b.Put(mailbox.Msg{Src: 1, Words: 1})
			if _, ok := b.TryTake(1); ok {
				taken++
			}
		}
	})/puts)
	if taken != puts*pb.reps {
		return fmt.Errorf("mailbox probe took %d of %d messages", taken, puts*pb.reps)
	}

	// Not closed: Sched.Close can race the hand-off that trails a Run
	// (ROADMAP item 1b); the idle workers end with the process.
	sc := mailbox.NewSched(servingThin.p, 16)
	done := func(int) bool { return true }
	pb.set("mailbox.sched_run_us", pb.time("mailbox", "sched_run", nil, func() {
		for i := 0; i < pb.calls; i++ {
			sc.Run(done)
		}
	})/1e3/float64(pb.calls))
	return nil
}

func probeTreap(pb prober) error {
	c := pb.c
	n := c.opts.div(probeTreapKeys, 256)
	rng := xrand.New(probeSeed + 1)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	perKey := float64(n)
	var trees []*treap.Tree[uint64]
	pb.set("treap.insert_ns", pb.time("treap", "insert", nil, func() {
		t := treap.New[uint64](probeSeed)
		for _, k := range keys {
			t.Insert(k)
		}
		trees = append(trees, t)
	})/perKey)
	i := 0
	pb.set("treap.delete_ns", pb.time("treap", "delete", nil, func() {
		t := trees[i]
		i++
		for _, k := range keys {
			t.Delete(k)
		}
	})/perKey)
	for _, t := range trees {
		if t.Len() != 0 {
			return fmt.Errorf("treap probe: %d keys left after deleting all", t.Len())
		}
	}
	inserted := 0
	pb.set("treap.insertbulk_ns_per_elem", pb.time("treap", "insertbulk", nil, func() {
		inserted = treap.New[uint64](probeSeed).InsertBulk(keys)
	})/perKey)
	if inserted != n {
		return fmt.Errorf("treap.InsertBulk inserted %d of %d keys", inserted, n)
	}
	return nil
}

func probeDHT(pb prober) error {
	c := pb.c
	n := c.opts.div(probeZipfLen, 256)
	stream := gen.FrequencyInput(xrand.New(probeSeed+2), gen.NewZipf(c.opts.div(aggUniverse, 1024), 1), n)
	perKey := float64(n)
	var tbl *dht.Table
	pb.set("dht.table_add_ns", pb.time("dht", "table_add", nil, func() {
		if tbl != nil {
			tbl.Release()
		}
		tbl = dht.NewTable(0)
		for _, x := range stream {
			tbl.Add(x, 1)
		}
	})/perKey)
	var total int64
	pb.set("dht.table_get_ns", pb.time("dht", "table_get", nil, func() {
		total = 0
		for _, x := range stream {
			v, _ := tbl.Get(x)
			total += v
		}
	})/perKey)
	defer tbl.Release()
	// Σ over the stream of count(x) is Σ over keys of count².
	var want int64
	tbl.ForEach(func(_ uint64, v int64) { want += v * v })
	if tbl.Total() != int64(n) || total != want {
		return fmt.Errorf("dht.Table probe: total %d (want %d), lookups sum %d (want %d)", tbl.Total(), n, total, want)
	}
	return nil
}
