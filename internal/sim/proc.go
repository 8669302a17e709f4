//go:build go1.23

// This file's build line raises its language version to go1.23, the first
// with package iter, while go.mod stays at go 1.22 (see DESIGN.md §4).

package sim

import "iter"

// abortSignal is panicked into parked processes during drain so their
// bodies unwind (running their defers) and their coroutines finish.
type abortSignal struct{}

// Proc is a simulated process: a coroutine (iter.Pull) that the kernel
// resumes one at a time. Resuming is a direct coroutine switch, so control
// passes between the kernel and the process without the Go scheduler, and
// only one of them ever runs. All blocking methods must be called from the
// process's own body.
type Proc struct {
	k    *Kernel
	name string
	live bool

	// next resumes the coroutine until it parks or finishes; stop aborts a
	// parked one. Both are nil until the process's time-zero event starts it.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool // the coroutine's way back to the kernel
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process that will start executing fn at the current
// virtual time (once Run is pumping events). A panic in fn other than the
// kernel's own abort reaches the caller of Run with its original value.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, live: true}
	k.procs = append(k.procs, p)
	k.nlive++
	k.At(k.now, func() {
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				p.live = false
				k.nlive--
				if r := recover(); r != nil {
					if _, ok := r.(abortSignal); ok {
						return
					}
					panic(r)
				}
			}()
			fn(p)
		})
		k.resumeProc(p)
	})
	return p
}

// resumeProc hands control to p and returns once p parks or finishes. Must
// be called from the kernel's side (inside an event callback).
func (k *Kernel) resumeProc(p *Proc) { p.next() }

// park blocks the process until the kernel resumes it. Returns normally on
// resume; panics with abortSignal when the kernel is draining.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(abortSignal{})
	}
}

// Wait advances the process by d of virtual time.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic("sim: negative wait")
	}
	if d == 0 {
		return
	}
	k := p.k
	k.AtArg(k.now+d, fireResume, p)
	p.park()
}

// fireResume is the pooled wake-up payload for Wait/Yield: scheduling the
// parked Proc itself through AtArg keeps the single hottest blocking
// primitive in the simulator closure-free (one heap closure per Wait adds
// up to the dominant allocation in traffic-heavy runs).
func fireResume(a any) {
	p := a.(*Proc)
	p.k.resumeProc(p)
}

// WaitUntil blocks the process until absolute time t (no-op if in the past).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.k.now {
		return
	}
	p.Wait(t - p.k.now)
}

// Yield reschedules the process at the current time, letting every other
// event already queued for this instant run first.
func (p *Proc) Yield() {
	k := p.k
	k.AtArg(k.now, fireResume, p)
	p.park()
}

// drain force-aborts every parked live process. A process whose time-zero
// event never fired has no coroutine yet: it is marked finished unrun.
func (k *Kernel) drain() {
	for _, p := range k.procs {
		switch {
		case !p.live:
		case p.stop == nil:
			p.live = false
			k.nlive--
		default:
			p.stop()
		}
	}
	k.procs = nil
}

// LiveProcs returns the number of processes that have not finished.
func (k *Kernel) LiveProcs() int { return k.nlive }
