package sim

import (
	"testing"
	"time"
)

// TestProcSetInterruptsInJoinOrder: Interrupt reaches the members still
// running, in the order they joined; finished members have left.
func TestProcSetInterruptsInJoinOrder(t *testing.T) {
	e := NewEngine()
	var set ProcSet
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		d := time.Hour
		if i%3 == 1 {
			d = time.Second // finishes (and leaves the set) early
		}
		set.Add(e.Spawn("member", func(p *Proc) {
			if OnInterrupt(func() { p.Sleep(d) }) != nil {
				order = append(order, i)
			}
		}))
	}
	e.At(time.Minute, func() { set.Interrupt("stop") })
	e.Run()
	want := []int{0, 2, 3, 5}
	if len(order) != len(want) {
		t.Fatalf("interrupted %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("interrupted %v, want %v", order, want)
		}
	}
	if set.head != nil || set.tail != nil {
		t.Fatal("set still holds finished processes")
	}
}

// countingName counts how often a process name is built.
type countingName struct{ built int }

func (n *countingName) String() string {
	n.built++
	return "lazy:7"
}

// TestSpawnNamedBuildsNameOnRead: a SpawnNamed process name is built
// only when something reads it — Name or the kill error.
func TestSpawnNamedBuildsNameOnRead(t *testing.T) {
	e := NewEngine()
	name := &countingName{}
	var proc *Proc
	proc = e.SpawnNamed(name, func(p *Proc) {
		p.Sleep(time.Second)
	})
	e.Run()
	if name.built != 0 {
		t.Fatalf("name built %d times with nothing reading it", name.built)
	}
	if got := proc.Name(); got != "lazy:7" {
		t.Fatalf("Name() = %q", got)
	}
	if got := (stoppedError{proc}).Error(); got != "sim: process stopped: lazy:7" {
		t.Fatalf("stop error = %q", got)
	}
}
