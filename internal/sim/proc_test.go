package sim

import "testing"

// TestFinishBeforeFirstPump ends a stepped run before any event has fired:
// the spawned process never started, so Finish must mark it finished without
// running its body.
func TestFinishBeforeFirstPump(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Spawn("never", func(p *Proc) { ran = true })
	k.Finish()
	if ran {
		t.Fatal("a process that never started ran during Finish")
	}
	if n := k.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Finish", n)
	}
}

type procPanic struct{ at Time }

// TestProcPanicPropagatesToRun checks that a panic in a process body reaches
// the caller of Run carrying its original value.
func TestProcPanicPropagatesToRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("bad", func(p *Proc) {
		p.Wait(10)
		panic(procPanic{p.Now()})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	if got != (procPanic{10}) {
		t.Fatalf("recovered %#v, want procPanic{at: 10}", got)
	}
	if n := k.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after the panicking process", n)
	}
}

// TestAbortRunsDeferredInParkedProcs checks that Finish unwinds a parked
// process's body, running its defers.
func TestAbortRunsDeferredInParkedProcs(t *testing.T) {
	k := NewKernel()
	var g Gate
	deferred, reached := false, false
	k.Spawn("parked", func(p *Proc) {
		defer func() { deferred = true }()
		g.Wait(p) // never signalled
		reached = true
	})
	k.RunUntil(0)
	if g.Waiters() != 1 || deferred {
		t.Fatalf("before Finish: waiters=%d deferred=%v", g.Waiters(), deferred)
	}
	k.Finish()
	if !deferred || reached {
		t.Fatalf("after Finish: deferred=%v reached=%v", deferred, reached)
	}
	if n := k.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Finish", n)
	}
}
