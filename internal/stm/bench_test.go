package stm

import (
	"fmt"
	"testing"
)

func BenchmarkRefLoad(b *testing.B) {
	s := New()
	r := NewRef(s, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Load()
	}
}

func BenchmarkTxnReadOnly(b *testing.B) {
	for _, p := range allPolicies {
		p := p
		for _, n := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("%s/refs=%d", p, n), func(b *testing.B) {
				s := New(WithPolicy(p))
				refs := make([]*Ref[int], n)
				for i := range refs {
					refs[i] = NewRef(s, i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Atomically(func(tx *Txn) error {
						for _, r := range refs {
							_ = r.Get(tx)
						}
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTxnReadModifyWrite(b *testing.B) {
	for _, p := range allPolicies {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			s := New(WithPolicy(p))
			r := NewRef(s, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Atomically(func(tx *Txn) error {
					r.Set(tx, r.Get(tx)+1)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTxnWriteN(b *testing.B) {
	for _, p := range allPolicies {
		p := p
		for _, n := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("%s/refs=%d", p, n), func(b *testing.B) {
				s := New(WithPolicy(p))
				refs := make([]*Ref[int], n)
				for i := range refs {
					refs[i] = NewRef(s, i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Atomically(func(tx *Txn) error {
						for _, r := range refs {
							r.Set(tx, i)
						}
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTxnLocalAccess(b *testing.B) {
	s := New()
	local := NewTxnLocal(func(tx *Txn) int { return 7 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Atomically(func(tx *Txn) error {
			for j := 0; j < 8; j++ {
				_ = local.Get(tx)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotReadOnly measures the declared-read-only transaction path
// at the read-heavy sweep's transaction size: tl2 runs it as an ordinary
// invisible-reader transaction (read log + commit-time validation), mvcc as a
// snapshot transaction (begin-time vector, no log, no validation).
func BenchmarkSnapshotReadOnly(b *testing.B) {
	for _, name := range []string{"tl2", "ccstm", "mvcc"} {
		for _, n := range []int{4, 64} {
			b.Run(fmt.Sprintf("%s/reads=%d", name, n), func(b *testing.B) {
				s := New(WithBackend(name))
				refs := make([]*Ref[int], 1024)
				for i := range refs {
					refs[i] = NewRef(s, i)
				}
				ctx := WithReadOnly(nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.AtomicallyCtx(ctx, func(tx *Txn) error {
						for j := 0; j < n; j++ {
							_ = refs[(i*97+j*131)%1024].Get(tx)
						}
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSmallTxnAfterLargeTxn measures what a small transaction pays for
// the largest transaction its pooled descriptor has ever run: one goroutine
// (so the pool hands the same descriptor back), tl2, a 2-read-2-write body,
// after zero, one 1024-read and one 3000-read transaction — both below
// maxRetainedCap, so the grown read log is retained. Recycling costs
// O(entries the attempt appended) (see truncate), so the three must report
// the same ns/op within noise.
func BenchmarkSmallTxnAfterLargeTxn(b *testing.B) {
	for _, bc := range []struct {
		name  string
		reads int
	}{{"fresh", 0}, {"after-1024-reads", 1024}, {"after-3000-reads", 3000}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(WithBackend("tl2"))
			refs := make([]*Ref[int], max(bc.reads, 2))
			for i := range refs {
				refs[i] = NewRef(s, i)
			}
			if err := s.Atomically(func(tx *Txn) error {
				for _, r := range refs[:bc.reads] {
					_ = r.Get(tx)
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			x, y := refs[0], refs[1]
			small := func(tx *Txn) error {
				vx, vy := x.Get(tx), y.Get(tx)
				x.Set(tx, vy)
				y.Set(tx, vx)
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Atomically(small); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchMVCCPublish times 64-write mvcc update commits over 4096 refs, with
// or without a goroutine running snapshot transactions beside them: with no
// snapshot registered a commit keeps no history; under the reader every
// commit appends the versions it displaces and trims against the watermark.
func benchMVCCPublish(b *testing.B, underReader bool) {
	const refsN, writes = 4096, 64
	s := New(WithBackend("mvcc"))
	refs := make([]*Ref[int], refsN)
	for i := range refs {
		refs[i] = NewRef(s, i)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !underReader {
			return
		}
		ctx := WithReadOnly(nil)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.AtomicallyCtx(ctx, func(tx *Txn) error {
				for j := 0; j < 4; j++ {
					_ = refs[(i*97+j*131)%refsN].Get(tx)
				}
				return nil
			})
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * writes) % refsN
		if err := s.Atomically(func(tx *Txn) error {
			for j := 0; j < writes; j++ {
				refs[base+j].Set(tx, i)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

func BenchmarkMVCCPublishIdle(b *testing.B)        { benchMVCCPublish(b, false) }
func BenchmarkMVCCPublishUnderReader(b *testing.B) { benchMVCCPublish(b, true) }
