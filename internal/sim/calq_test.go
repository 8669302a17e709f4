package sim

import "testing"

// TestRunUntilNTable pins the stepped pump's edge cases: an empty queue, a
// queue holding only daemons, a limit falling exactly on an event's
// timestamp, and budgets on both sides of the eligible count.
func TestRunUntilNTable(t *testing.T) {
	type ev struct {
		at     Time
		daemon bool
	}
	cases := []struct {
		name      string
		evs       []ev
		limit     Time
		n         int
		wantFired int
		wantNow   Time
	}{
		{name: "empty queue", limit: 100, n: 10, wantFired: 0, wantNow: 0},
		{name: "daemon-only queue",
			evs:   []ev{{10, true}, {20, true}},
			limit: 100, n: 10, wantFired: 0, wantNow: 0},
		{name: "limit at exact event time",
			evs:   []ev{{10, false}, {20, false}, {30, false}},
			limit: 20, n: 10, wantFired: 2, wantNow: 20},
		{name: "limit just below event",
			evs:   []ev{{10, false}, {20, false}},
			limit: 19, n: 10, wantFired: 1, wantNow: 10},
		{name: "budget below eligible",
			evs:   []ev{{10, false}, {20, false}, {30, false}},
			limit: 100, n: 2, wantFired: 2, wantNow: 20},
		{name: "daemons interleaved fire within limit",
			evs:   []ev{{10, false}, {15, true}, {20, false}},
			limit: 20, n: 10, wantFired: 3, wantNow: 20},
		{name: "trailing daemons left queued",
			evs:   []ev{{10, false}, {50, true}},
			limit: 100, n: 10, wantFired: 1, wantNow: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			for _, e := range tc.evs {
				if e.daemon {
					k.AtDaemon(e.at, func() {})
				} else {
					k.At(e.at, func() {})
				}
			}
			if got := k.RunUntilN(tc.limit, tc.n); got != tc.wantFired {
				t.Errorf("fired %d events, want %d", got, tc.wantFired)
			}
			if k.Now() != tc.wantNow {
				t.Errorf("now = %v, want %v", k.Now(), tc.wantNow)
			}
		})
	}
}

// TestNextUserEventTable pins the idle fast-forward probe: empty queue,
// daemon-only queue, a mix where daemons precede the earliest user event,
// and user events waiting in the calendar's overflow store.
func TestNextUserEventTable(t *testing.T) {
	t.Run("empty queue", func(t *testing.T) {
		k := NewKernel()
		if at, ok := k.NextUserEvent(); ok {
			t.Errorf("NextUserEvent = (%v, true), want none", at)
		}
	})
	t.Run("daemon-only queue", func(t *testing.T) {
		k := NewKernel()
		k.AtDaemon(5, func() {})
		k.AtDaemon(10, func() {})
		if at, ok := k.NextUserEvent(); ok {
			t.Errorf("NextUserEvent = (%v, true), want none", at)
		}
	})
	t.Run("daemon before user", func(t *testing.T) {
		k := NewKernel()
		k.AtDaemon(5, func() {})
		k.At(30, func() {})
		k.At(12, func() {})
		at, ok := k.NextUserEvent()
		if !ok || at != 12 {
			t.Errorf("NextUserEvent = (%v, %v), want (12, true)", at, ok)
		}
	})
	t.Run("past ring horizon", func(t *testing.T) {
		k := NewKernel()
		k.SetTimeGrain(10)
		k.At(Time(10*calBuckets*4), func() {})
		k.At(Time(10*calBuckets*2), func() {})
		at, ok := k.NextUserEvent()
		if !ok || at != Time(10*calBuckets*2) {
			t.Errorf("NextUserEvent = (%v, %v), want (%v, true)", at, ok, Time(10*calBuckets*2))
		}
	})
}

// TestCalendarQueueEdges exercises the calendar store directly through the
// kernel: events past the ring horizon (overflow promotion), an emptied
// queue re-anchoring its epoch far in the future, and same-time events
// popping in schedule order.
func TestCalendarQueueEdges(t *testing.T) {
	k := NewKernel()
	k.SetTimeGrain(100)
	var order []int
	rec := func(id int) func() { return func() { order = append(order, id) } }
	// Far beyond the 512-bucket horizon -> overflow heap.
	k.At(Time(100*calBuckets*3), rec(4))
	// Same timestamp: schedule order is fire order.
	k.At(500, rec(0))
	k.At(500, rec(1))
	// Sub-grain timestamps share a bucket.
	k.At(510, rec(2))
	k.At(90000, rec(3))
	k.Run()
	want := []int{0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order %v, want %v", order, want)
		}
	}

	// Re-anchor: run the queue dry, then schedule epochs ahead of the old
	// base; the calendar must re-anchor rather than scan empty buckets.
	k2 := NewKernel()
	k2.SetTimeGrain(100)
	k2.At(50, func() {})
	k2.RunUntil(50)
	fired := false
	k2.At(Time(100*calBuckets*1000), func() { fired = true })
	k2.Run()
	if !fired {
		t.Error("event scheduled epochs past the drained calendar never fired")
	}
}

// FuzzCalendarOrder draws a calendar grain and an event program — same-time
// ties, events past the ring horizon, children scheduled from callbacks
// (delay 0 ties behind everything already queued), and a stepped pause after
// which the cursor may sit ahead of the clock — and requires the kernel to
// fire exactly what an independent oracle fires: a flat list scanned for its
// minimum (at, seq), with children appended as they are scheduled. The queue
// fingerprint at the pause must not depend on the grain either.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{1, 3, 10, 20, 30, 5, 5, 200}, uint8(4), uint8(50))
	f.Add([]byte{0, 0, 0, 255, 255}, uint8(2), uint8(0))
	f.Add([]byte{7, 1, 9}, uint8(8), uint8(255))
	f.Fuzz(func(t *testing.T, deltas []byte, spawn uint8, grainB uint8) {
		if len(deltas) == 0 || len(deltas) > 256 {
			t.Skip()
		}
		ats := make([]Time, len(deltas))
		at := Time(0)
		for i, d := range deltas {
			at += Time(d) * 3
			ats[i] = at
		}
		pause := ats[len(ats)/2]
		every := int(spawn)%4 + 1
		hasChild := func(id int) bool { return id >= 0 && id < 1000 && id%every == 0 }
		childDelay := func(id int) Time { return Time(int(deltas[id]) % 11) }
		const late = -1 // scheduled from outside any callback after the pause

		run := func(grain Time) ([]int, uint64) {
			k := NewKernel()
			if grain > 0 {
				k.SetTimeGrain(grain)
			}
			var order []int
			for i := range deltas {
				i := i
				k.At(ats[i], func() {
					order = append(order, i)
					if hasChild(i) {
						k.After(childDelay(i), func() { order = append(order, 1000+i) })
					}
				})
			}
			k.RunUntil(pause)
			_, fp := k.QueueFingerprint()
			k.At(k.Now(), func() { order = append(order, late) })
			k.Run()
			return order, fp
		}

		type ent struct {
			at  Time
			seq int
			id  int
		}
		var pending []ent
		var want []int
		seq, now := 0, Time(0)
		add := func(at Time, id int) {
			pending = append(pending, ent{at, seq, id})
			seq++
		}
		fire := func(limit Time) {
			for len(pending) > 0 {
				m := 0
				for j, e := range pending {
					if e.at < pending[m].at || e.at == pending[m].at && e.seq < pending[m].seq {
						m = j
					}
				}
				e := pending[m]
				if e.at > limit {
					return
				}
				pending = append(pending[:m], pending[m+1:]...)
				now = e.at
				want = append(want, e.id)
				if hasChild(e.id) {
					add(now+childDelay(e.id), 1000+e.id)
				}
			}
		}
		for i := range deltas {
			add(ats[i], i)
		}
		fire(pause)
		add(now, late)
		fire(Forever)

		grain := Time(0) // the built-in default
		if grainB != 0 {
			grain = Time(grainB)*17 + 1
		}
		refOrder, refFP := run(0)
		got, fp := run(grain)
		if fp != refFP {
			t.Errorf("grain=%d: queue fingerprint %x at the pause, default grain %x", grain, fp, refFP)
		}
		for _, order := range [][]int{refOrder, got} {
			if len(order) != len(want) {
				t.Fatalf("grain=%d: fired %d events, oracle fired %d", grain, len(order), len(want))
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("grain=%d: order diverges at %d: got %d want %d", grain, i, order[i], want[i])
				}
			}
		}
	})
}
