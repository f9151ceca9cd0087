package main

import (
	"cmp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"proust/internal/bench"
	"proust/internal/conc"
	"proust/internal/core"
	"proust/internal/lock"
	"proust/internal/server"
	"proust/internal/stm"
)

// The layer ladder replays a workload's generated op stream one layer lower
// each time, with no contention unless stated, so an end-to-end number can be
// read against what each layer beneath it costs alone. Every rung is a probe
// of fixed duration; rungs belong to the workload they explain and read 0 on
// the others.

// probeNS calls fn(n) — which must perform n operations — in chunks until d
// has passed and returns nanoseconds per operation.
func probeNS(d time.Duration, chunk int, fn func(n int)) float64 {
	fn(chunk) // warm
	start := time.Now()
	total := 0
	for time.Since(start) < d {
		fn(chunk)
		total += chunk
	}
	return float64(time.Since(start)) / float64(total)
}

// ---- lib-fig4: core, baseline, lock and conc rungs --------------------------

func fig4Ladder(_ instance, seed uint64, probe time.Duration, m metricSet) {
	// The design-space points of Figure 4 at (o=16, u=0.5, 2 workers); the
	// pessimistic point at o=1, as in the paper.
	for _, f := range bench.Factories() {
		name, o := strings.TrimPrefix(f.Name, "proust-"), fig4OpsPerTxn
		key := "core.ops_per_s." + name
		switch name {
		case "predication", "pure-stm":
			key = "baseline.ops_per_s." + name
		case "pessimistic":
			key, o = "core.ops_per_s.pessimistic-o1", 1
		}
		m[key] = mapOpsPerS(f.New(), seed, probe, o)
	}

	// One transaction of 16 ops on one worker, per op.
	if f, ok := bench.FactoryByName("predication"); ok {
		pred := f.New()
		_ = bench.Prepopulate(pred, fig4Keys) // the body cannot fail
		m["baseline.pred_op_ns"] = 1e9 / mapOpsPerSWorkers(pred, seed, probe, fig4OpsPerTxn, 1)
	}

	s := stm.New(stm.WithBackend(fig4Backend))
	q := core.NewQueue[int](s, core.NewOptimisticLAP(s, core.QStateHash, 64))
	var v int
	queueBody := func(tx *stm.Txn) error { q.Enqueue(tx, v); q.Dequeue(tx); return nil }
	m["core.queue_op_ns"] = probeNS(probe, 256, func(n int) {
		for i := 0; i < n; i += 2 {
			v = i
			_ = s.Atomically(queueBody)
		}
	})
	pq := core.NewPQueue[int](s, core.NewOptimisticLAP(s, core.PQStateHash, 64),
		func(a, b int) bool { return a < b }, func(a, b int) bool { return a == b })
	r := newRNG(seed, 0x900)
	for i := 0; i < 256; i++ {
		_ = s.Atomically(func(tx *stm.Txn) error { pq.Insert(tx, int(r.intn(1<<30))); return nil })
	}
	pqBody := func(tx *stm.Txn) error { pq.Insert(tx, v); pq.RemoveMin(tx); return nil }
	m["core.pqueue_op_ns"] = probeNS(probe, 256, func(n int) {
		for i := 0; i < n; i += 2 {
			v = int(r.intn(1 << 30))
			_ = s.Atomically(pqBody)
		}
	})
	s.Close()

	locks := lock.NewStriped(fig4Keys)
	owner := new(int)
	m["lock.acquire_release_ns"] = probeNS(probe, 1024, func(n int) {
		for i := 0; i < n; i++ {
			_ = locks.Acquire(owner, uint64(i), lock.Write, time.Second) // uncontended: cannot time out
			locks.Stripe(uint64(i)).ReleaseAll(owner)                    // as the pessimistic LAP releases: per held stripe
		}
	})

	ctrieLadder(seed, probe, m)

	sl := conc.NewSkipListMap[int, int](cmp.Compare[int])
	for k := 0; k < pointKeys; k++ {
		sl.Put(k, k)
	}
	m["conc.skiplist_get_ns"] = probeNS(probe, 1024, func(n int) {
		for i := 0; i < n; i++ {
			sl.Get(int(r.intn(pointKeys)))
		}
	})
	m["conc.skiplist_put_ns"] = probeNS(probe, 1024, func(n int) {
		for i := 0; i < n; i++ {
			k := int(r.intn(pointKeys))
			sl.Put(k, k)
		}
	})

	// What the ADT wrapper adds over its base structure, per op of the mix:
	// the traced spans, less the clock's own cost, less the bare Ctrie.
	mix := func(get, put, remove float64) float64 { return 0.5*get + 0.25*put + 0.25*remove }
	if m["core.op_ns.get"] > 0 {
		m["core.adt_self_ns"] = mix(m["core.op_ns.get"], m["core.op_ns.put"], m["core.op_ns.remove"]) -
			m["trace.clock_ns"] - mix(m["conc.ctrie_get_ns"], m["conc.ctrie_put_ns"], m["conc.ctrie_remove_ns"])
	}
}

// mapOpsPerS runs the lib-fig4 op stream (o ops per transaction) against sys
// with the benchmark's two workers for d and returns committed ops per second.
func mapOpsPerS(sys bench.System, seed uint64, d time.Duration, o int) float64 {
	_ = bench.Prepopulate(sys, fig4Keys) // even keys, as lib-fig4 does; the body cannot fail
	return mapOpsPerSWorkers(sys, seed, d, o, workers)
}

func mapOpsPerSWorkers(sys bench.System, seed uint64, d time.Duration, o, nWorkers int) float64 {
	defer sys.STM.Close()
	var wg sync.WaitGroup
	counts := make([]int, nWorkers)
	start := time.Now()
	for id := 0; id < nWorkers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := newFig4Gen(seed, 0x10+id)
			ops := make([]mapOp, o)
			body := func(tx *stm.Txn) error {
				for _, op := range ops {
					switch op.kind {
					case opGet:
						sys.Map.Get(tx, op.key)
					case opPut:
						sys.Map.Put(tx, op.key, op.val)
					case opRemove:
						sys.Map.Remove(tx, op.key)
					}
				}
				return nil
			}
			for i := 0; i%16 != 0 || time.Since(start) < d; i++ {
				for j := range ops {
					ops[j] = g.next()
				}
				if sys.STM.Atomically(body) == nil {
					counts[id] += o
				}
			}
		}(id)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / time.Since(start).Seconds()
}

// ctrieLadder runs the lib-fig4 op stream on a bare conc.Ctrie: the ops of
// each kind are drawn from the stream in blocks and timed a block at a time.
func ctrieLadder(seed uint64, probe time.Duration, m metricSet) {
	ct := conc.NewCtrieUnversioned[int, int](conc.IntHasher)
	for k := 0; k < fig4Keys; k += 2 {
		ct.Put(k, k)
	}
	g := newFig4Gen(seed, 0x20)
	const block = 256
	var gets, puts, removes [block]mapOp
	var tGet, tPut, tRemove time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rounds := 0
	for start := time.Now(); time.Since(start) < 3*probe; rounds++ {
		ng, np, nr := 0, 0, 0
		for ng < block || np < block || nr < block {
			switch op := g.next(); {
			case op.kind == opGet && ng < block:
				gets[ng], ng = op, ng+1
			case op.kind == opPut && np < block:
				puts[np], np = op, np+1
			case op.kind == opRemove && nr < block:
				removes[nr], nr = op, nr+1
			}
		}
		t0 := time.Now()
		for i := range gets {
			ct.Get(gets[i].key)
		}
		t1 := time.Now()
		for i := range puts {
			ct.Put(puts[i].key, puts[i].val)
		}
		t2 := time.Now()
		for i := range removes {
			ct.Remove(removes[i].key)
		}
		t3 := time.Now()
		tGet, tPut, tRemove = tGet+t1.Sub(t0), tPut+t2.Sub(t1), tRemove+t3.Sub(t2)
	}
	runtime.ReadMemStats(&ms1)
	n := float64(rounds * block)
	m["conc.ctrie_get_ns"] = float64(tGet) / n
	m["conc.ctrie_put_ns"] = float64(tPut) / n
	m["conc.ctrie_remove_ns"] = float64(tRemove) / n
	m["conc.ctrie_allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / (3 * n)

	// A snapshot is O(1) when taken and paid for by the next writer's path
	// copy, so the rung times the pair: Snapshot, then one Put.
	vt := conc.NewCtrie[int, int](conc.IntHasher)
	for k := 0; k < fig4Keys; k += 2 {
		vt.Put(k, k)
	}
	m["conc.ctrie_snapshot_ns"] = probeNS(probe, 64, func(n int) {
		for i := 0; i < n; i++ {
			vt.Snapshot()
			k := (i * 2) % fig4Keys
			vt.Put(k, k)
		}
	})
}

// ---- lib-bank: stm rungs -----------------------------------------------------

func bankLadder(_ instance, seed uint64, probe time.Duration, m metricSet) {
	s := stm.New(stm.WithBackend(bankBackend))
	nop := func(*stm.Txn) error { return nil }
	m["stm.empty_txn_ns"] = probeNS(probe, 1024, func(n int) {
		for i := 0; i < n; i++ {
			_ = s.Atomically(nop)
		}
	})
	one := stm.NewRef(s, 0)
	rmw1 := func(tx *stm.Txn) error { one.Set(tx, one.Get(tx)+1); return nil }
	m["stm.rmw1_ns"] = probeNS(probe, 1024, func(n int) {
		for i := 0; i < n; i++ {
			_ = s.Atomically(rmw1)
		}
	})
	s.Close()

	// Eight-ref read-modify-write on every backend that terminates on two
	// cores (eager does not; see ROADMAP).
	for _, backend := range []string{"tl2", "ccstm", "norec", "mvcc"} {
		s := stm.New(stm.WithBackend(backend))
		refs := make([]*stm.Ref[int], bankAccounts)
		for i := range refs {
			refs[i] = stm.NewRef(s, bankInitial)
		}
		r := newRNG(seed, 0x910)
		var pick [8]int
		body := func(tx *stm.Txn) error {
			for _, k := range pick {
				refs[k].Set(tx, refs[k].Get(tx)+1)
			}
			return nil
		}
		ns := probeNS(probe, 256, func(n int) {
			for i := 0; i < n; i++ {
				for j := range pick {
					pick[j] = int(r.intn(bankAccounts))
				}
				_ = s.Atomically(body)
			}
		})
		m["stm.rmw_ops_per_s."+backend] = 8e9 / ns
		s.Close()
	}
}

// ---- wire-pipeline: hashmap rungs -----------------------------------------------

func pipeLadder(_ instance, seed uint64, probe time.Duration, m metricSet) {
	r := newRNG(seed, 0x920)
	for _, size := range []struct {
		name string
		keys uint64
	}{{"small", pointKeys}, {"large", pipeKeys}} {
		h := conc.NewHashMap[uint64, uint64](conc.Uint64Hasher)
		for k := uint64(0); k < size.keys; k++ {
			h.Put(k, k)
		}
		m["conc.hashmap_get_ns."+size.name] = probeNS(probe, 1024, func(n int) {
			for i := 0; i < n; i++ {
				h.Get(r.intn(size.keys))
			}
		})
		m["conc.hashmap_put_ns."+size.name] = probeNS(probe, 1024, func(n int) {
			for i := 0; i < n; i++ {
				k := r.intn(size.keys)
				h.Put(k, k)
			}
		})
	}
}

// ---- wire-point: the open-loop ladder ---------------------------------------------

// pointLadder offers the wire-point mix on a schedule, whatever the replies
// do, at three pinned rates. Latency runs from each batch's due time, so a
// stall charges every batch it delays; how late the generator itself ran is
// reported beside it.
func pointLadder(inst instance, seed uint64, probe time.Duration, m metricSet) {
	w := inst.(*wire)
	step := 6 * probe // three steps of 6 rungs' time each
	var late []int64
	maxOK := 0.0
	for _, rt := range []struct {
		label string
		rate  float64
	}{{"r25", openRate25}, {"r50", openRate50}, {"r75", openRate75}} {
		lat, lateness, attempted, failed := w.openLoop(seed, rt.rate, step)
		late = append(late, lateness...)
		slices.Sort(lat)
		p50, p99 := 0.0, 0.0
		if len(lat) > 0 {
			p50, p99 = float64(lat[rank(len(lat), 0.5)])/1e3, float64(lat[rank(len(lat), 0.99)])/1e3
		}
		m["server.open_p50_us."+rt.label] = p50
		m["server.open_p99_us."+rt.label] = p99
		if attempted > 0 && p99 <= openLimitP99US && float64(failed)/float64(attempted) <= openLimitFailed {
			maxOK = rt.rate
		}
	}
	slices.Sort(late)
	if len(late) > 0 {
		m["server.open_late_p99_us"] = float64(late[rank(len(late), 0.99)]) / 1e3
	}
	m["server.open_max_rate_ok"] = maxOK
}

// openLoop drives the two connections at rate batches/s in total for d. Each
// connection has a sender on a fixed schedule and a reader; a batch that gets
// no OK reply, or a wrong one, counts as failed.
func (w *wire) openLoop(seed uint64, rate float64, d time.Duration) (lat, late []int64, attempted, failed uint64) {
	type result struct {
		lat, late         []int64
		attempted, failed uint64
	}
	results := make([]result, workers)
	interval := time.Duration(float64(time.Second) * workers / rate)
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			res := &results[id]
			c, err := server.Dial(w.addr)
			if err != nil {
				res.attempted, res.failed = 1, 1
				return
			}
			defer c.Close()
			n := int(d/interval) + 1
			res.lat, res.late = make([]int64, 0, n), make([]int64, 0, n)
			// due carries each sent batch's due time and shape to the reader;
			// sized to the whole step so the sender never blocks on it.
			type sent struct {
				due time.Time
				op  wireOp
			}
			due := make(chan sent, n)
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				var r server.Reply
				wb := wireBatch{n: 1}
				for s := range due {
					wb.ops[0] = s.op
					if err := c.ReadReply(&r); err != nil {
						res.failed += uint64(len(due)) + 1
						for range due { // the connection is gone: drain
						}
						return
					}
					if checkReply(&r, &wb, w.cfg.valueSize) != 0 {
						res.failed++
					}
					res.lat = append(res.lat, int64(time.Since(s.due)))
				}
			}()
			g := newPointGen(seed, 0x30+id)
			val := make([]byte, w.cfg.valueSize)
			var b server.Batch
			var wb wireBatch
			start := time.Now()
			next := start.Add(time.Duration(id) * interval / workers)
			for next.Sub(start) < d {
				// The runtime rounds a sleep under a millisecond up to about
				// one when the process is otherwise idle, so the sender wakes
				// late and sends what has come due in one chunk: the lateness
				// is in every latency below and is reported beside them.
				// (Yielding in a spin instead starves the network poller on
				// two cores and is far worse.)
				if wait := time.Until(next); wait > 0 {
					time.Sleep(wait)
				}
				// Send everything that is due, then flush once.
				now := time.Now()
				for !next.After(now) && next.Sub(start) < d {
					g.next(&wb)
					encode(&b, &wb, val, uint64(res.attempted))
					c.Send(&b)
					res.late = append(res.late, int64(now.Sub(next)))
					res.attempted++
					due <- sent{due: next, op: wb.ops[0]}
					next = next.Add(interval)
				}
				if err := c.Flush(); err != nil {
					c.Close() // unblocks the reader, which fails what is outstanding
					break
				}
			}
			close(due)
			<-readerDone
		}(id)
	}
	wg.Wait()
	for _, r := range results {
		lat, late = append(lat, r.lat...), append(late, r.late...)
		attempted, failed = attempted+r.attempted, failed+r.failed
	}
	return lat, late, attempted, failed
}
