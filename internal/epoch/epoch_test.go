package epoch

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func constVals(n int, c float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = c
	}
	return v
}

// fillConst returns a Publish fill that writes the constant c.
func fillConst(c float64) func([]float64) error {
	return func(buf []float64) error {
		for i := range buf {
			buf[i] = c
		}
		return nil
	}
}

func TestVersionedBasics(t *testing.T) {
	first := constVals(8, 1)
	v := New(first)
	if got := v.Current().Seq(); got != 1 {
		t.Fatalf("initial Seq = %d, want 1", got)
	}

	g := v.Pin()
	defer v.Unpin(g)
	if g.Seq() != 1 {
		t.Fatalf("pinned Seq = %d, want 1", g.Seq())
	}
	// New adopts the slice: generation 1 is the caller's array.
	if &g.Vals()[0] != &first[0] {
		t.Fatal("New copied the first generation's values")
	}

	if err := v.Publish(fillConst(2)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got := v.Current().Seq(); got != 2 {
		t.Fatalf("Seq after publish = %d, want 2", got)
	}
	// The old pin still sees generation-1 values.
	for k, val := range g.Vals() {
		if val != 1 {
			t.Fatalf("pinned generation mutated at %d: %g", k, val)
		}
	}
	g2 := v.Pin()
	defer v.Unpin(g2)
	if g2.Seq() != 2 || len(g2.Vals()) != 8 || g2.Vals()[0] != 2 {
		t.Fatalf("new pin: seq %d len %d val %g, want 2, 8, 2", g2.Seq(), len(g2.Vals()), g2.Vals()[0])
	}

	// A failed fill leaves the current generation in place, and its
	// buffer is the next fill target.
	var failed *float64
	errFill := errors.New("fill failed")
	err := v.Publish(func(buf []float64) error {
		failed = &buf[0]
		buf[0] = -1
		return errFill
	})
	if !errors.Is(err, errFill) {
		t.Fatalf("Publish returned %v, want the fill error", err)
	}
	if cur := v.Current(); cur != g2 || cur.Vals()[0] != 2 {
		t.Fatalf("failed Publish replaced the current generation (seq %d)", cur.Seq())
	}
	if err := v.Publish(func(buf []float64) error {
		if &buf[0] != failed {
			return errors.New("failed fill buffer was not reused")
		}
		return fillConst(3)(buf)
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Current().Seq(); got != 3 {
		t.Fatalf("Seq after failed then good publish = %d, want 3", got)
	}
}

// TestVersionedRecycle proves the two-buffer steady state: with no
// readers pinned, repeated publishes ping-pong between the same two
// value arrays instead of allocating per generation.
func TestVersionedRecycle(t *testing.T) {
	v := New(constVals(16, 0))
	seen := map[*float64]bool{}
	for g := 0; g < 20; g++ {
		if err := v.Publish(fillConst(float64(g))); err != nil {
			t.Fatal(err)
		}
		gen := v.Pin()
		seen[&gen.Vals()[0]] = true
		v.Unpin(gen)
	}
	if len(seen) > 2 {
		t.Fatalf("saw %d distinct buffers across 20 publishes, want <= 2", len(seen))
	}
}

// TestVersionedPinBlocksRecycle proves a held pin keeps its buffer out
// of the recycle pool: generations published while an old one is
// pinned must not scribble over it.
func TestVersionedPinBlocksRecycle(t *testing.T) {
	v := New(constVals(16, 1))
	g := v.Pin()
	for c := 2; c <= 6; c++ {
		if err := v.Publish(fillConst(float64(c))); err != nil {
			t.Fatal(err)
		}
	}
	for k, val := range g.Vals() {
		if val != 1 {
			t.Fatalf("pinned generation-1 buffer overwritten at %d: %g", k, val)
		}
	}
	v.Unpin(g)
}

// TestVersionedConcurrentHammer races pinned readers against a
// publisher. Every generation's values are one constant (its seq), so
// any torn read — a buffer mixing generations, or a recycled buffer
// overwritten under a reader — shows up as a non-constant snapshot.
func TestVersionedConcurrentHammer(t *testing.T) {
	v := New(constVals(192, 1))
	const (
		readers = 8
		updates = 400
		reads   = 400
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 2; g <= updates+1; g++ {
			if err := v.Publish(fillConst(float64(g))); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				g := v.Pin()
				want := float64(g.Seq())
				for k, val := range g.Vals() {
					if val != want {
						v.Unpin(g)
						errc <- fmt.Errorf("torn read: generation %d entry %d = %g", g.Seq(), k, val)
						return
					}
				}
				v.Unpin(g)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := v.Current().Seq(); got != updates+1 {
		t.Fatalf("final Seq = %d, want %d", got, updates+1)
	}
}
