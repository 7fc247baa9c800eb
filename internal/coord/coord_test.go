package coord

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestOperationsPayRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e, 25*time.Millisecond)
	var elapsed time.Duration
	e.Spawn("client", func(p *sim.Proc) {
		s.Update(p)
		s.Push(p, "q", 1)
		elapsed = p.Now()
	})
	e.Run()
	e.Close()
	if elapsed != 50*time.Millisecond {
		t.Fatalf("elapsed = %v, want 50ms (2 round trips)", elapsed)
	}
}

func TestQueuePushPop(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e, 0)
	var got []any
	e.Spawn("producer", func(p *sim.Proc) {
		s.Push(p, "q", 1)
		s.Push(p, "q", 2)
	})
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			v, ok := s.PopWait(p, "q", time.Minute)
			if !ok {
				t.Error("pop timed out")
				return
			}
			got = append(got, v)
		}
	})
	e.Run()
	e.Close()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestPopWaitTimeout(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e, 0)
	var ok bool
	var at time.Duration
	e.Spawn("consumer", func(p *sim.Proc) {
		_, ok = s.PopWait(p, "empty", 2*time.Second)
		at = p.Now()
	})
	e.Run()
	e.Close()
	if ok || at != 2*time.Second {
		t.Fatalf("ok=%v at=%v, want timeout at 2s", ok, at)
	}
}
