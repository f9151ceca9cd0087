package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"

	"proust/internal/baseline"
	"proust/internal/conc"
	"proust/internal/core"
	"proust/internal/obs"
	"proust/internal/server"
	"proust/internal/stm"
)

const (
	nsKV  = "kv"
	nsCtr = "ctr"
)

// wireCfg is what differs between the two wire workloads.
type wireCfg struct {
	name      string
	backend   string
	keys      uint64
	valueSize int
	depth     int // batches per burst (pipeline depth)
	pipeline  bool
}

var (
	pointCfg = wireCfg{name: "wire-point", backend: pointBackend, keys: pointKeys, valueSize: pointValueSize, depth: 1}
	pipeCfg  = wireCfg{name: "wire-pipeline", backend: pipeBackend, keys: pipeKeys, valueSize: pipeValueSize, depth: pipeDepth, pipeline: true}
)

// wire is a proust-serve instance with default settings behind real loopback
// TCP, plus (traced pass only) a metrics registry and an in-process twin of
// its structures.
type wire struct {
	cfg      wireCfg
	s        *stm.STM
	srv      *server.Server
	addr     string
	serveErr chan error
	reg      *obs.Registry
	twin     *twin
}

func newWire(cfg wireCfg) func(bool) (instance, error) {
	return func(traced bool) (instance, error) {
		w := &wire{cfg: cfg, s: stm.New(stm.WithBackend(cfg.backend)), serveErr: make(chan error, 1)}
		scfg := server.Config{System: w.s}
		if traced {
			w.reg = obs.NewRegistry()
			scfg.Registry = w.reg
		}
		srv, err := server.New(scfg)
		if err != nil {
			return nil, err
		}
		ln, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		w.srv, w.addr = srv, ln.Addr().String()
		go func() { w.serveErr <- srv.Serve(ln) }()
		if err := w.populate(); err != nil {
			w.close()
			return nil, err
		}
		if traced {
			w.twin = newTwin(cfg)
		}
		return w, nil
	}
}

// populate SETs every key once over the wire, so predicates exist and every
// later GET must hit.
func (w *wire) populate() error {
	c, err := server.Dial(w.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	val := make([]byte, w.cfg.valueSize)
	var b server.Batch
	var r server.Reply
	const width = 64
	for k := uint64(0); k < w.cfg.keys; k += width {
		b.Reset()
		for j := k; j < k+width; j++ {
			fillValue(val, j, 0)
			b.Set(nsKV, j, val)
		}
		if err := c.Do(&b, &r); err != nil {
			return fmt.Errorf("%s populate: %w", w.cfg.name, err)
		}
		if !r.OK() {
			return fmt.Errorf("%s populate: status %d %s", w.cfg.name, r.Status, r.Msg)
		}
	}
	return nil
}

func (w *wire) system() *stm.STM { return w.s }

func (w *wire) close() error {
	err := w.srv.Close()
	if serr := <-w.serveErr; err == nil && !errors.Is(serr, net.ErrClosed) {
		err = serr
	}
	w.s.Close()
	if w.twin != nil {
		w.twin.s.Close()
	}
	return err
}

// next draws one batch of this workload's mix.
type batchGen interface{ next(*wireBatch) }

func (w *wire) gen(seed uint64, id int) batchGen {
	if w.cfg.pipeline {
		return newPipeGen(seed, id)
	}
	return newPointGen(seed, id)
}

// encode builds the request frame for wb. val is the worker's reusable value
// buffer (Batch.Set copies it into the frame).
func encode(b *server.Batch, wb *wireBatch, val []byte, salt uint64) {
	b.Reset()
	for i := 0; i < wb.n; i++ {
		op := &wb.ops[i]
		switch op.code {
		case opGet:
			b.Get(nsKV, op.key)
		case opPut:
			fillValue(val, op.key, salt)
			b.Set(nsKV, op.key, val)
		case opIncr:
			b.Incr(nsCtr, op.key, op.delta)
		}
	}
}

// checkReply is the wire oracle: status OK, one result per op, the right tag
// for each, and every GET's bytes describing the key that was asked for. It
// returns the number of mismatches.
func checkReply(r *server.Reply, wb *wireBatch, valueSize int) int {
	if !r.OK() || len(r.Results) != wb.n {
		return wb.n
	}
	bad := 0
	for i := 0; i < wb.n; i++ {
		op, res := &wb.ops[i], &r.Results[i]
		switch op.code {
		case opGet:
			if res.Tag != server.TagBytes || len(res.Bytes) != valueSize ||
				binary.BigEndian.Uint64(res.Bytes) != op.key {
				bad++
			}
		case opPut:
			if res.Tag != server.TagOK {
				bad++
			}
		case opIncr:
			if res.Tag != server.TagInt {
				bad++
			}
		}
	}
	return bad
}

// work drives one connection in a closed loop: generate a burst of depth
// batches, send them, flush once, read the replies, repeat. Each batch's
// latency runs from the start of the burst's encoding to its checked reply.
func (w *wire) work(id int, rec *recorder, tr *tracer) {
	c, err := server.Dial(w.addr)
	if err != nil {
		rec.check(w.cfg.name+" dial", err)
		return
	}
	defer c.Close()
	depth := w.cfg.depth
	g := w.gen(rec.seed, id)
	burst := make([]wireBatch, depth)
	val := make([]byte, w.cfg.valueSize)
	var b server.Batch
	var r server.Reply
	for i := 0; rec.more(i); i++ {
		for k := range burst {
			g.next(&burst[k])
		}
		traced := tr != nil && i%traceEvery == 0
		id64 := uint64(id)<<48 | uint64(i)
		t0 := rec.now()
		if !rec.tick(t0) {
			break
		}
		var root, sp int32 = -1, -1
		if traced {
			root = tr.begin(spBatch, -1, id64)
		}
		for k := range burst {
			if traced {
				sp = tr.begin(spEncode, root, id64)
			}
			encode(&b, &burst[k], val, id64)
			if traced {
				tr.end(sp)
				sp = tr.begin(spFlush, root, id64)
			}
			c.Send(&b)
			if traced {
				tr.end(sp)
			}
		}
		if traced {
			sp = tr.begin(spFlush, root, id64)
		}
		err := c.Flush()
		if traced {
			tr.end(sp)
		}
		for k := 0; k < depth && err == nil; k++ {
			if traced {
				sp = tr.begin(spReplyWait, root, id64)
			}
			err = c.ReadReply(&r)
			if traced {
				tr.end(sp)
				sp = tr.begin(spDecode, root, id64)
			}
			if err != nil {
				break
			}
			wb := &burst[k]
			if bad := checkReply(&r, wb, w.cfg.valueSize); bad == 0 {
				rec.commit(wb.n)
			} else {
				rec.fail(wb.n)
			}
			if traced {
				tr.end(sp)
			}
			rec.sample(rec.now() - t0)
		}
		if traced {
			tr.end(root)
		}
		if err != nil {
			// A broken connection fails the burst and ends the worker.
			rec.check(w.cfg.name+" connection", err)
			return
		}
		if traced {
			for k := range burst {
				w.twin.run(&burst[k], val, id64, tr)
			}
		}
	}
}

// finish reads the whole counter namespace in one all-GET frame (one
// snapshot): INCR pairs cancel, so it must sum to zero.
func (w *wire) finish(rec *recorder) {
	if !w.cfg.pipeline {
		return
	}
	rec.check(w.cfg.name+" counter sum", w.counterSum())
}

func (w *wire) counterSum() error {
	c, err := server.Dial(w.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var b server.Batch
	var r server.Reply
	for k := uint64(0); k < pipeCounters; k++ {
		b.Get(nsCtr, k)
	}
	if err := c.Do(&b, &r); err != nil {
		return err
	}
	if !r.OK() || len(r.Results) != pipeCounters {
		return fmt.Errorf("status %d, %d results", r.Status, len(r.Results))
	}
	var sum int64
	for _, res := range r.Results {
		switch {
		case res.Tag == server.TagNil:
		case res.Tag == server.TagBytes && len(res.Bytes) == 8:
			sum += int64(binary.BigEndian.Uint64(res.Bytes))
		default:
			return fmt.Errorf("counter reply has tag %d, %d bytes", res.Tag, len(res.Bytes))
		}
	}
	if sum != 0 {
		return fmt.Errorf("counters sum to %d, want 0", sum)
	}
	return nil
}

// ---- twin -----------------------------------------------------------------

// twin holds in-process structures equivalent to the server's namespaces, so
// a traced batch can be replayed through core.Do with no wire around it:
// what the transaction alone costs.
type twin struct {
	s       *stm.STM
	kv, ctr *baseline.PredicationMap[uint64, []byte]
	ro      context.Context
}

func newTwin(cfg wireCfg) *twin {
	s := stm.New(stm.WithBackend(cfg.backend))
	t := &twin{
		s:   s,
		kv:  baseline.NewPredicationMap[uint64, []byte](s, conc.Uint64Hasher),
		ctr: baseline.NewPredicationMap[uint64, []byte](s, conc.Uint64Hasher),
		ro:  stm.WithReadOnly(context.Background()),
	}
	for lo := uint64(0); lo < cfg.keys; lo += 64 {
		_ = s.Atomically(func(tx *stm.Txn) error { // the body returns nil and the STM is open
			for k := lo; k < lo+64; k++ {
				v := make([]byte, cfg.valueSize)
				fillValue(v, k, 0)
				t.kv.Put(tx, k, v)
			}
			return nil
		})
	}
	return t
}

// run replays wb as one transaction, mirroring what the server's batch body
// does per opcode, under a txn_equiv → attempt span pair.
func (t *twin) run(wb *wireBatch, val []byte, id uint64, tr *tracer) {
	root := tr.begin(spTxnEquiv, -1, id)
	body := func(tx *stm.Txn) error {
		defer tr.end(tr.begin(spAttempt, root, id)) // deferred: an abort leaves by panic
		for i := 0; i < wb.n; i++ {
			op := &wb.ops[i]
			switch op.code {
			case opGet:
				t.kv.Get(tx, op.key)
			case opPut:
				fillValue(val, op.key, id)
				t.kv.Put(tx, op.key, append([]byte(nil), val...))
			case opIncr:
				cur, _ := t.ctr.Get(tx, op.key)
				var n int64
				if len(cur) == 8 {
					n = int64(binary.BigEndian.Uint64(cur))
				}
				t.ctr.Put(tx, op.key, binary.BigEndian.AppendUint64(nil, uint64(n+op.delta)))
			}
		}
		return nil
	}
	ctx := context.Background()
	if wb.readOnly() {
		ctx = t.ro
	}
	_ = core.Do(ctx, t.s, body) // the body returns nil; ctx never expires
	tr.end(root)
}
