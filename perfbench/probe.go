package main

import (
	"container/heap"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe. The VMs this benchmark runs on change speed by
// ±30% over minutes as other tenants load the host: the same cell of the
// same seed measured 1.2 s in one run and 1.9 s a minute later. Before
// every cell the benchmark times this fixed piece of work, and the time
// metrics are scaled by probeRef over the probe times measured around
// each cell. The probe lives in this file only, so no change to the
// program can change it. It has two parts, because the workloads feel
// two kinds of contention: a compute part spends its time where the
// simulation does (goroutine handoffs over unbuffered channels, a binary
// heap of small pointerful items, a map built and walked), and a memory
// part walks a 16 MiB array in a scattered order, as the collector and
// the large-heap workloads do.

// probeRef is the probe time of the reference host, in seconds: the
// scaled metrics read as seconds on a host that runs the probe this fast.
const probeRef = 0.040

const (
	probeItems = 20000
	probeWalk  = 150000 // steps of the memory part
	// probeMemBytes is the memory part's array. It is mapped outside the
	// Go heap, so it changes neither the collector's pacing nor its
	// work; peak_rss_mb leaves it out.
	probeMemBytes = 16 << 20
)

// probeMem is the memory part's array, mapped and filled once.
var probeMem []uint32

var probeSink int

type probeItem struct {
	key  uint64
	next *probeItem
}

type probeHeap []*probeItem

func (h probeHeap) Len() int           { return len(h) }
func (h probeHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h probeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x any)        { *h = append(*h, x.(*probeItem)) }
func (h *probeHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// probe runs the fixed work and returns its wall time.
func probe() (time.Duration, error) {
	if probeMem == nil {
		b, err := syscall.Mmap(-1, 0, probeMemBytes, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return 0, err
		}
		mem := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
		for i := range mem {
			mem[i] = uint32((uint64(i)*2654435761 + 12345) % uint64(len(mem)))
		}
		probeMem = mem
	}
	t0 := time.Now()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	s := 0
	for i := 0; i < probeItems; i++ {
		ping <- i
		s += <-pong
	}
	close(ping)
	<-pong // the echo goroutine has exited

	x := uint64(88172645463325252) // xorshift64 state
	h := make(probeHeap, 0, probeItems)
	m := make(map[uint64]*probeItem, probeItems)
	var prev *probeItem
	for i := 0; i < probeItems; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		it := &probeItem{key: x, next: prev}
		prev = it
		heap.Push(&h, it)
		m[x] = it
	}
	for h.Len() > 0 {
		s += int(heap.Pop(&h).(*probeItem).key & 0xff)
	}
	for r := 0; r < 10; r++ {
		for k, v := range m {
			s += int(k&1) + int(v.key&3)
		}
	}
	n := uint32(len(probeMem))
	j := uint32(1)
	for i := 0; i < probeWalk; i++ {
		j = probeMem[(j*2654435761+uint32(i))%n]
		s += int(j & 1)
	}
	probeSink = s
	return time.Since(t0), nil
}
