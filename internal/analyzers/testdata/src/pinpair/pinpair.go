// Package pinpair is a fixture for the pinpair analyzer. Stub Engine,
// SolveContext and Values types mirror the generation-pinning API of
// internal/core and internal/epoch, and each function exercises one
// violating or compliant pairing pattern; `// want` comments mark the
// lines where findings must land.
package pinpair

import "errors"

// SolveContext mirrors internal/core.SolveContext (holds a pin while
// acquired).
type SolveContext struct{ acquired bool }

// Engine mirrors internal/core.Engine's context pool surface.
type Engine struct{}

// AcquireContext mirrors the real acquire (pins on acquire).
func (e *Engine) AcquireContext() *SolveContext { return &SolveContext{acquired: true} }

// ReleaseContext mirrors the real release (unpins on release).
func (e *Engine) ReleaseContext(c *SolveContext) { c.acquired = false }

// Gen mirrors internal/epoch.Gen (one pinned value generation).
type Gen struct{ refs int }

// Values mirrors internal/epoch.Values' pinning surface.
type Values struct{ cur *Gen }

// Pin mirrors the real handle-returning pin.
func (v *Values) Pin() *Gen { v.cur.refs++; return v.cur }

// Unpin mirrors the real handle-consuming release.
func (v *Values) Unpin(g *Gen) { g.refs-- }

// VersionedMatrix mirrors the root package's wrapper around Values.
type VersionedMatrix struct{ v *Values }

// Pin mirrors VersionedMatrix.Pin.
func (m *VersionedMatrix) Pin() *Gen { return m.v.Pin() }

// Unpin mirrors VersionedMatrix.Unpin.
func (m *VersionedMatrix) Unpin(g *Gen) { m.v.Unpin(g) }

// decoy carries same-named Pin/Unpin methods on an unrelated type; the
// analyzer's receiver-type guard must leave them untracked.
type decoy struct{}

func (d *decoy) Pin() *Gen    { return nil }
func (d *decoy) Unpin(g *Gen) {}

var errFixture = errors.New("fixture")

func work(c *SolveContext) {}

// --- violations ---

// leakOnError releases on the happy path only: the early error return
// leaks the acquired context.
func leakOnError(e *Engine, fail bool) error {
	c := e.AcquireContext()
	if fail {
		return errFixture // want `AcquireContext at .*pinpair\.go:\d+ is not released on this return path`
	}
	e.ReleaseContext(c)
	return nil
}

// discarded drops the acquired context on the floor.
func discarded(e *Engine) {
	e.AcquireContext() // want `result of AcquireContext discarded`
}

// assignedToBlank leaks through the blank identifier.
func assignedToBlank(e *Engine) {
	_ = e.AcquireContext() // want `result of AcquireContext assigned to _`
}

// leakAtEnd never releases at all: flagged at the implicit return when
// the function falls off its end.
func leakAtEnd(e *Engine) {
	c := e.AcquireContext()
	work(c)
} // want `AcquireContext at .*pinpair\.go:\d+ is not released on this return path`

// matrixPinLeakOnError unpins the matrix epoch on the happy path only:
// the early error return keeps the pinned value generation alive
// forever (its buffer can never be recycled).
func matrixPinLeakOnError(vm *VersionedMatrix, fail bool) error {
	ep := vm.Pin()
	if fail {
		return errFixture // want `Pin at .*pinpair\.go:\d+ is not unpinned on this return path`
	}
	vm.Unpin(ep)
	return nil
}

// matrixPinDiscarded drops the pinned epoch on the floor.
func matrixPinDiscarded(vm *VersionedMatrix) {
	vm.Pin() // want `result of Pin discarded`
}

// matrixPinBlank leaks the pinned epoch through the blank identifier.
func matrixPinBlank(vm *VersionedMatrix) {
	_ = vm.Pin() // want `result of Pin assigned to _`
}

// valuesPinLeakAtEnd pins the internal Values type and never unpins:
// flagged at the implicit return.
func valuesPinLeakAtEnd(v *Values) {
	ep := v.Pin()
	_ = ep
} // want `Pin at .*pinpair\.go:\d+ is not unpinned on this return path`

// --- compliant forms ---

// deferRelease covers every path, error or not, with one defer.
func deferRelease(e *Engine, fail bool) error {
	c := e.AcquireContext()
	defer e.ReleaseContext(c)
	if fail {
		return errFixture
	}
	return nil
}

// deferFuncLit releases inside a deferred function literal.
func deferFuncLit(e *Engine) {
	c := e.AcquireContext()
	defer func() {
		e.ReleaseContext(c)
	}()
	work(c)
}

// explicitBothPaths releases explicitly before each return.
func explicitBothPaths(e *Engine, fail bool) error {
	c := e.AcquireContext()
	if fail {
		e.ReleaseContext(c)
		return errFixture
	}
	e.ReleaseContext(c)
	return nil
}

// holder models the Applier pattern: ownership of the acquired context
// transfers out of the function, so no release is required here.
type holder struct{ c *SolveContext }

func transfer(e *Engine) *holder {
	return &holder{c: e.AcquireContext()}
}

// releaseParam releases a context it did not acquire: closing an
// untracked handle is always fine.
func releaseParam(e *Engine, c *SolveContext) {
	e.ReleaseContext(c)
}

// loopBalanced pins and unpins inside a loop body.
func loopBalanced(v *Values, n int) {
	for i := 0; i < n; i++ {
		g := v.Pin()
		_ = g
		v.Unpin(g)
	}
}

// switchBalanced releases in every arm of an exhaustive switch.
func switchBalanced(e *Engine, n int) {
	c := e.AcquireContext()
	switch n {
	case 0:
		e.ReleaseContext(c)
	default:
		e.ReleaseContext(c)
	}
}

// matrixPinDefer covers every path, error or not, with one defer —
// the canonical whole-solve pin bracket.
func matrixPinDefer(vm *VersionedMatrix, fail bool) error {
	ep := vm.Pin()
	defer vm.Unpin(ep)
	if fail {
		return errFixture
	}
	return nil
}

// valuesPinExplicit unpins explicitly before each return.
func valuesPinExplicit(v *Values, fail bool) error {
	ep := v.Pin()
	if fail {
		v.Unpin(ep)
		return errFixture
	}
	v.Unpin(ep)
	return nil
}

// unpinParam releases an epoch pinned elsewhere: closing an untracked
// handle is always fine (the Applier-style ownership transfer).
func unpinParam(vm *VersionedMatrix, g *Gen) {
	vm.Unpin(g)
}

// decoyPin exercises the receiver-type guard: Pin on an unrelated
// type is not an epoch pin and must not be tracked or flagged.
func decoyPin(d *decoy) {
	d.Pin()
}
