package main

import (
	"fmt"

	"proust/internal/bench"
	"proust/internal/conc"
	"proust/internal/core"
	"proust/internal/stm"
)

// ---- lib-fig4 -------------------------------------------------------------

// fig4 is the paper's Figure-4 centre cell (16 ops per transaction, 50 %
// writes, 1024 keys) on one shared lazy/optimistic core.LazySnapshotMap over
// tl2. The issue pinned the eager/optimistic core.Map on ccstm; on two real
// cores that map's final state is inconsistent (Size() != keys present:
// stm's rollback releases the conflict-abstraction locks before it runs the
// eager inverses), so the benchmark would measure the bug. See README,
// "Deviations".
type fig4 struct {
	s *stm.STM
	m *core.LazySnapshotMap[int, int]
}

func newFig4(bool) (instance, error) {
	s := stm.New(stm.WithBackend(fig4Backend))
	lap := core.NewOptimisticLAP(s, conc.IntHasher, fig4Keys)
	f := &fig4{s: s, m: core.NewLazySnapshotMap[int, int](s, lap, conc.IntHasher)}
	// Even keys prepopulated: the map starts, and statistically stays, half full.
	if err := bench.Prepopulate(bench.System{STM: s, Map: f.m}, fig4Keys); err != nil {
		return nil, fmt.Errorf("lib-fig4: %w", err)
	}
	return f, nil
}

func (f *fig4) system() *stm.STM { return f.s }
func (f *fig4) close() error     { f.s.Close(); return nil }

// fig4Worker carries one worker's transaction state so the body can be a
// method value hoisted out of the loop (no closure per transaction).
type fig4Worker struct {
	f   *fig4
	rec *recorder
	tr  *tracer
	ops [fig4OpsPerTxn]mapOp

	traced bool
	root   int32
	id     uint64
}

func (f *fig4) work(id int, rec *recorder, tr *tracer) {
	w := &fig4Worker{f: f, rec: rec, tr: tr}
	g := newFig4Gen(rec.seed, id)
	body := w.body
	for i := 0; rec.more(i); i++ {
		for j := range w.ops {
			w.ops[j] = g.next()
		}
		timed := i%fig4SampleEvery == 0
		w.traced = tr != nil && i%traceEvery == 0
		var t0 int64
		if timed {
			t0 = rec.now()
			if !rec.tick(t0) {
				break
			}
		}
		if w.traced {
			w.id = uint64(id)<<48 | uint64(i)
			w.root = tr.begin(spTxn, -1, w.id)
		}
		err := f.s.Atomically(body)
		if w.traced {
			tr.end(w.root)
		}
		if timed {
			rec.sample(rec.now() - t0)
		}
		if err != nil {
			rec.fail(fig4OpsPerTxn)
		} else {
			rec.commit(fig4OpsPerTxn)
		}
	}
}

// body runs the 16 generated ops. Every value that comes back — from a Get,
// or as the previous binding of a Put or Remove — must describe its own key.
func (w *fig4Worker) body(tx *stm.Txn) error {
	m := w.f.m
	if w.traced {
		return w.tracedBody(tx)
	}
	for i := range w.ops {
		op := &w.ops[i]
		var v int
		var ok bool
		switch op.kind {
		case opGet:
			v, ok = m.Get(tx, op.key)
		case opPut:
			v, ok = m.Put(tx, op.key, op.val)
		case opRemove:
			v, ok = m.Remove(tx, op.key)
		}
		if ok && v%fig4Keys != op.key {
			w.rec.mismatch()
		}
	}
	return nil
}

func (w *fig4Worker) tracedBody(tx *stm.Txn) error {
	m, tr := w.f.m, w.tr
	att := tr.begin(spAttempt, w.root, w.id)
	defer tr.end(att) // deferred: an aborted attempt leaves the body by panic
	for i := range w.ops {
		op := &w.ops[i]
		var v int
		var ok bool
		switch op.kind {
		case opGet:
			sp := tr.begin(spCoreGet, att, w.id)
			v, ok = m.Get(tx, op.key)
			tr.end(sp)
		case opPut:
			sp := tr.begin(spCorePut, att, w.id)
			v, ok = m.Put(tx, op.key, op.val)
			tr.end(sp)
		case opRemove:
			sp := tr.begin(spCoreRemove, att, w.id)
			v, ok = m.Remove(tx, op.key)
			tr.end(sp)
		}
		if ok && v%fig4Keys != op.key {
			w.rec.mismatch()
		}
	}
	return nil
}

// finish checks, in one transaction, that the reified size equals the
// number of keys present and that every present value describes its key.
func (f *fig4) finish(rec *recorder) {
	err := f.s.Atomically(func(tx *stm.Txn) error {
		n := 0
		for k := 0; k < fig4Keys; k++ {
			if v, ok := f.m.Get(tx, k); ok {
				n++
				if v%fig4Keys != k {
					return fmt.Errorf("key %d holds value %d of key %d", k, v, v%fig4Keys)
				}
			}
		}
		if size := f.m.Size(tx); size != n {
			return fmt.Errorf("Size()=%d but %d keys are present", size, n)
		}
		return nil
	})
	rec.check("lib-fig4 final state", err)
}

// ---- lib-bank -------------------------------------------------------------

// bank is 1024 flat stm.Ref[int] accounts on tl2: Zipf transfers beside
// read-everything audits. core, conc and server are bypassed entirely.
type bank struct {
	s    *stm.STM
	acct []*stm.Ref[int]
}

func newBank(bool) (instance, error) {
	b := &bank{s: stm.New(stm.WithBackend(bankBackend)), acct: make([]*stm.Ref[int], bankAccounts)}
	for i := range b.acct {
		b.acct[i] = stm.NewRef(b.s, bankInitial)
	}
	return b, nil
}

func (b *bank) system() *stm.STM { return b.s }
func (b *bank) close() error     { b.s.Close(); return nil }

type bankWorker struct {
	b   *bank
	rec *recorder
	tr  *tracer
	t   bankTxn

	traced bool
	root   int32
	id     uint64
}

func (b *bank) work(id int, rec *recorder, tr *tracer) {
	w := &bankWorker{b: b, rec: rec, tr: tr}
	g := newBankGen(rec.seed, id)
	transfer, audit := w.transfer, w.audit
	for i := 0; rec.more(i); i++ {
		w.t = g.next()
		timed := i%bankSampleEvery == 0
		w.traced = tr != nil && i%traceEvery == 0
		var t0 int64
		if timed {
			t0 = rec.now()
			if !rec.tick(t0) {
				break
			}
		}
		body, ops, name := transfer, 4, spTxn
		if w.t.audit {
			body, ops, name = audit, bankAccounts, spTxnRO
		}
		if w.traced {
			w.id = uint64(id)<<48 | uint64(i)
			w.root = tr.begin(name, -1, w.id)
		}
		err := b.s.Atomically(body)
		if w.traced {
			tr.end(w.root)
		}
		if timed {
			rec.sample(rec.now() - t0)
		}
		if err != nil {
			rec.fail(ops)
		} else {
			rec.commit(ops)
		}
	}
}

func (w *bankWorker) transfer(tx *stm.Txn) error {
	from, to := w.b.acct[w.t.from], w.b.acct[w.t.to]
	if !w.traced {
		a, c := from.Get(tx), to.Get(tx)
		from.Set(tx, a-w.t.amt)
		to.Set(tx, c+w.t.amt)
		return nil
	}
	tr := w.tr
	att := tr.begin(spAttempt, w.root, w.id)
	defer tr.end(att) // deferred: an aborted attempt leaves the body by panic
	sp := tr.begin(spRefGet, att, w.id)
	a := from.Get(tx)
	tr.end(sp)
	sp = tr.begin(spRefGet, att, w.id)
	c := to.Get(tx)
	tr.end(sp)
	sp = tr.begin(spRefSet, att, w.id)
	from.Set(tx, a-w.t.amt)
	tr.end(sp)
	sp = tr.begin(spRefSet, att, w.id)
	to.Set(tx, c+w.t.amt)
	tr.end(sp)
	return nil
}

// audit reads every account. Any attempt that reaches the end of the body —
// committed or not — must see the initial total: that is opacity.
func (w *bankWorker) audit(tx *stm.Txn) error {
	if w.traced {
		defer w.tr.end(w.tr.begin(spAttempt, w.root, w.id)) // deferred: an abort leaves by panic
	}
	sum := 0
	for _, r := range w.b.acct {
		sum += r.Get(tx)
	}
	if sum != bankAccounts*bankInitial {
		w.rec.mismatch()
	}
	return nil
}

func (b *bank) finish(rec *recorder) {
	err := b.s.Atomically(func(tx *stm.Txn) error {
		sum := 0
		for _, r := range b.acct {
			sum += r.Get(tx)
		}
		if sum != bankAccounts*bankInitial {
			return fmt.Errorf("accounts sum to %d, want %d", sum, bankAccounts*bankInitial)
		}
		return nil
	})
	rec.check("lib-bank final state", err)
}
