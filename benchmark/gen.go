package main

import (
	"encoding/binary"
	"math/rand"
)

// The generator is the benchmark's only source of randomness: every op
// stream is a pure function of (seed, worker), and the program under test
// sees nothing but the generated inputs. Nothing here allocates after
// construction (a test gates it).

// rng is a splitmix64-seeded xorshift64* generator. It implements
// rand.Source64 so the stdlib Zipf sampler can draw from it.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	z := seed*0x9e3779b97f4a7c15 + stream*0xd1342543de82ef95 + 0x2545f4914f6cdd1d
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &rng{s: (z ^ (z >> 31)) | 1}
}

func (r *rng) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

func (r *rng) Int63() int64 { return int64(r.Uint64() >> 1) }
func (r *rng) Seed(int64)   {}

// intn draws uniformly from [0, n) for n < 2^32 (multiply-shift, no modulo
// bias worth the name at these ranges).
func (r *rng) intn(n uint64) uint64 { return (r.Uint64() >> 32) * n >> 32 }

// zipf draws ranks from a Zipf(s) law over [0, n) and scatters them over the
// key space with an odd multiplier (a bijection on a power-of-two n), so the
// hot keys are not neighbours in any hash table or shard.
type zipf struct {
	z    *rand.Zipf
	mask uint64
}

func newZipf(src *rng, s float64, n uint64) zipf {
	if n&(n-1) != 0 {
		panic("benchmark: zipf key count must be a power of two")
	}
	return zipf{z: rand.NewZipf(rand.New(src), s, 1, n-1), mask: n - 1}
}

func (z zipf) next() uint64 { return (z.z.Uint64()*0x9e3779b1 + 0x7f4a7c15) & z.mask }

// ---- lib-fig4 -------------------------------------------------------------

const (
	opGet uint8 = iota + 1
	opPut
	opRemove
	opIncr // wire only
)

// mapOp is one lib-fig4 operation. Values are self-describing:
// val % fig4Keys == key, so a Get that returns another key's value (pool
// aliasing, a torn undo) is detectable from the value alone.
type mapOp struct {
	kind uint8
	key  int
	val  int
}

type fig4Gen struct{ r *rng }

func newFig4Gen(seed uint64, worker int) *fig4Gen {
	return &fig4Gen{r: newRNG(seed, 0x100+uint64(worker))}
}

func (g *fig4Gen) next() mapOp {
	key := int(g.r.intn(fig4Keys))
	c := g.r.intn(4) // 0,1: get; 2: put; 3: remove  (50 % writes, split evenly)
	switch c {
	case 2:
		return mapOp{kind: opPut, key: key, val: key + fig4Keys*int(g.r.intn(1<<20))}
	case 3:
		return mapOp{kind: opRemove, key: key}
	}
	return mapOp{kind: opGet, key: key}
}

// ---- lib-bank -------------------------------------------------------------

// bankTxn is one lib-bank transaction: an audit, or a transfer of amt from
// one account to a different one.
type bankTxn struct {
	audit    bool
	from, to int
	amt      int
}

type bankGen struct {
	r *rng
	z zipf
}

func newBankGen(seed uint64, worker int) *bankGen {
	return &bankGen{
		r: newRNG(seed, 0x200+uint64(worker)),
		z: newZipf(newRNG(seed, 0x280+uint64(worker)), bankZipfS, bankAccounts),
	}
}

func (g *bankGen) next() bankTxn {
	if g.r.intn(bankAuditOneIn) == 0 {
		return bankTxn{audit: true}
	}
	from, to := int(g.z.next()), int(g.z.next())
	if to == from {
		to = (from + 1) % bankAccounts
	}
	return bankTxn{from: from, to: to, amt: 1 + int(g.r.intn(10))}
}

// ---- wire -----------------------------------------------------------------

// wireOp is one operation of a wire batch. ctr selects the counter
// namespace (INCR pairs) instead of the key-value one.
type wireOp struct {
	code  uint8
	ctr   bool
	key   uint64
	delta int64
}

// wireBatch is one generated request frame: at most wireMaxOps operations
// that the server runs as one transaction.
type wireBatch struct {
	n   int
	ops [wireMaxOps]wireOp
}

const wireMaxOps = 16

// fillValue writes the self-describing value for key into val: the key in
// the first eight bytes, a salt after it. A GET that returns bytes whose
// prefix is not its key is an oracle mismatch.
func fillValue(val []byte, key, salt uint64) {
	binary.BigEndian.PutUint64(val, key)
	for i := 8; i+8 <= len(val); i += 8 {
		binary.BigEndian.PutUint64(val[i:], salt+uint64(i))
	}
}

// pointGen draws wire-point batches: one op, 90 % GET / 10 % SET, uniform.
type pointGen struct{ r *rng }

func newPointGen(seed uint64, worker int) *pointGen {
	return &pointGen{r: newRNG(seed, 0x300+uint64(worker))}
}

func (g *pointGen) next(b *wireBatch) {
	b.n = 1
	b.ops[0] = wireOp{code: opGet, key: g.r.intn(pointKeys)}
	if g.r.intn(10) == 0 {
		b.ops[0].code = opPut
	}
}

// pipeGen draws wire-pipeline batches of 16 ops: half are all-GET, half are
// 8 GET + 6 SET + one INCR(+d)/INCR(-d) pair on the counter namespace.
type pipeGen struct {
	r   *rng
	z   zipf
	ctr zipf
}

func newPipeGen(seed uint64, worker int) *pipeGen {
	return &pipeGen{
		r:   newRNG(seed, 0x400+uint64(worker)),
		z:   newZipf(newRNG(seed, 0x480+uint64(worker)), pipeZipfS, pipeKeys),
		ctr: newZipf(newRNG(seed, 0x4c0+uint64(worker)), pipeZipfS, pipeCounters),
	}
}

func (g *pipeGen) next(b *wireBatch) {
	b.n = wireMaxOps
	if g.r.intn(2) == 0 {
		for i := range b.ops {
			b.ops[i] = wireOp{code: opGet, key: g.z.next()}
		}
		return
	}
	for i := 0; i < 8; i++ {
		b.ops[i] = wireOp{code: opGet, key: g.z.next()}
	}
	for i := 8; i < 14; i++ {
		b.ops[i] = wireOp{code: opPut, key: g.z.next()}
	}
	d := 1 + int64(g.r.intn(100))
	b.ops[14] = wireOp{code: opIncr, ctr: true, key: g.ctr.next(), delta: d}
	b.ops[15] = wireOp{code: opIncr, ctr: true, key: g.ctr.next(), delta: -d}
}

// readOnly reports whether every op of the batch is a GET (the server routes
// such frames to read-only snapshots).
func (b *wireBatch) readOnly() bool {
	for i := 0; i < b.n; i++ {
		if b.ops[i].code != opGet {
			return false
		}
	}
	return true
}

// streamHash folds the first n draws of every workload's generator for
// worker 0 into one FNV-1a hash: equal seeds give equal hashes.
func streamHash(seed uint64, n int) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(vs ...uint64) {
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				h = (h ^ (v >> (8 * i) & 0xff)) * 0x100000001b3
			}
		}
	}
	fg, bg := newFig4Gen(seed, 0), newBankGen(seed, 0)
	pg, qg := newPointGen(seed, 0), newPipeGen(seed, 0)
	var wb wireBatch
	for i := 0; i < n; i++ {
		o := fg.next()
		mix(uint64(o.kind), uint64(o.key), uint64(o.val))
		t := bg.next()
		mix(uint64(t.from), uint64(t.to), uint64(t.amt))
		pg.next(&wb)
		mix(uint64(wb.ops[0].code), wb.ops[0].key)
		qg.next(&wb)
		for j := 0; j < wb.n; j++ {
			mix(uint64(wb.ops[j].code), wb.ops[j].key, uint64(wb.ops[j].delta))
		}
	}
	return h
}
