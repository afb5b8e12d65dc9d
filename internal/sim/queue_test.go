package sim

import "testing"

func TestSameCycleEventsFireNearFirstInScheduleOrder(t *testing.T) {
	const at = 1 << 16
	c := &cpu{}
	for _, s := range []struct {
		now, at uint64
		slot    int32
	}{
		{now: 1, at: at, slot: 0},          // far
		{now: 2, at: at, slot: 1},          // far
		{now: at - 10, at: at, slot: 2},    // near
		{now: at - 5, at: at, slot: 3},     // near
		{now: at - 5, at: at - 1, slot: 4}, // an earlier cycle
	} {
		c.now = s.now
		c.schedule(s.at, s.slot, 0)
	}
	var got []int32
	for len(c.events) > 0 {
		got = append(got, c.events.pop().slot)
	}
	want := []int32{4, 2, 3, 0, 1}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("fired slots %v, want %v", got, want)
		}
	}
}
