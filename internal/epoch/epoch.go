// Package epoch versions a fixed-length []float64 by generation: the
// one primitive behind both live-update channels of the library, the
// factor values a Refactorize republishes (internal/core.Engine) and
// the matrix values a VersionedMatrix.UpdateValues republishes. The
// structure those values index into (a factor or matrix pattern) is
// fixed and shared by every generation; a generation owns nothing but
// its value array.
//
// Lifecycle: Publish fills the next generation in a buffer no reader
// can see, then makes it current with one atomic pointer store.
// Readers Pin the current generation before reading any value and
// Unpin when done, so an in-flight reader keeps reading the exact
// generation it started on while later pins observe the new one. A
// replaced generation is retired; once its reader count drains to
// zero its buffer becomes the fill target of a later Publish, so a
// publish-heavy steady state ping-pongs between two buffers and never
// allocates value storage. Publishers never wait for readers.
package epoch

import (
	"sync"
	"sync/atomic"
)

// Values is a generation-versioned value array. The zero value is not
// usable; construct with New. Pin, Unpin and Current are safe for
// unlimited concurrent use with each other and with Publish;
// concurrent Publish calls serialize.
type Values struct {
	// cur is the published generation.
	cur atomic.Pointer[Gen]
	// mu serializes Publish (grab + fill + publish) against itself. It
	// is never taken by readers.
	mu sync.Mutex
	// retired holds replaced generations, and failed fill buffers,
	// until their readers drain and their buffers recycle.
	retired []*Gen //javelin:plain-under-mu mu
}

// Gen is one published generation of values.
type Gen struct {
	vals []float64
	// seq is the publication-ordered generation number: 1 for the
	// values New adopted, +1 per successful Publish. Written once
	// before the publishing store and immutable after, so a reader
	// that reached the generation through cur sees it fully written.
	seq uint64
	// refs counts pinned readers. A retired generation is reusable
	// only at zero; the current generation's count is transiently
	// wrong-by-one during Pin's validation window, which is harmless
	// because the current generation is never a recycling candidate.
	refs atomic.Int64
}

// Vals returns the generation's value array. Callers must not mutate
// it, and may read it only while the generation is pinned.
func (g *Gen) Vals() []float64 { return g.vals }

// Seq returns the generation number: 1 for the values New adopted,
// +1 per successful Publish.
func (g *Gen) Seq() uint64 { return g.seq }

// New returns a Values whose first generation (Seq 1) is vals, adopted
// without copying: the caller must not write vals afterwards. Every
// later generation has len(vals) values.
func New(vals []float64) *Values {
	v := &Values{}
	v.cur.Store(&Gen{vals: vals, seq: 1})
	return v
}

// Current returns the newest published generation without pinning it.
// Its Seq is always valid; its values are safe to read only while no
// Publish can run, since an unpinned generation may be recycled as a
// fill target once two later generations have been published.
func (v *Values) Current() *Gen { return v.cur.Load() }

// Pin returns the current generation with one reader reference held;
// every Pin must be balanced by exactly one Unpin (machine-checked by
// the pinpair analyzer). The increment-then-validate loop closes the
// race against a concurrent Publish: if the generation was replaced
// between the load and the increment, its buffer may already be a
// fill target, so the reference is dropped without touching the
// values and the pin retries on the new current generation.
//
//javelin:noalloc
func (v *Values) Pin() *Gen {
	for {
		g := v.cur.Load()
		g.refs.Add(1)
		if v.cur.Load() == g {
			return g
		}
		g.refs.Add(-1)
	}
}

// Unpin releases one reader reference taken by Pin.
//
//javelin:noalloc
func (v *Values) Unpin(g *Gen) {
	if g != nil {
		g.refs.Add(-1)
	}
}

// Publish builds the next generation: fill writes every value of a
// buffer no reader can observe, and on success that buffer becomes the
// current generation with one atomic store, Seq one past the previous.
// When fill fails, the buffer is kept for the next Publish, the
// current generation stays in place untouched, and fill's error is
// returned. The buffer is a drained retired one when any exists (its
// old contents are arbitrary), a fresh allocation otherwise; Publish
// never waits for pinned readers. fill runs under the publish lock, so
// it may use scratch state shared by all publications.
func (v *Values) Publish(fill func(buf []float64) error) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.cur.Load()
	next := v.grabLocked(len(old.vals))
	if err := fill(next.vals); err != nil {
		v.retired = append(v.retired, next)
		return err
	}
	v.cur.Store(&Gen{vals: next.vals, seq: old.seq + 1})
	v.retired = append(v.retired, old)
	return nil
}

// grabLocked takes a drained generation out of the retired list, or
// makes a fresh one of n values when every retired generation is
// still pinned. Caller holds mu.
func (v *Values) grabLocked(n int) *Gen {
	for i, g := range v.retired {
		if g.refs.Load() == 0 {
			last := len(v.retired) - 1
			v.retired[i] = v.retired[last]
			v.retired[last] = nil
			v.retired = v.retired[:last]
			return g
		}
	}
	return &Gen{vals: make([]float64, n)}
}
