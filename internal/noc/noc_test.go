package noc

import (
	"testing"

	"vcache/internal/sim"
)

func TestSendLatency(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	n.AddLink(CUToL2, 10, 0)
	var arrived uint64
	n.Send(CUToL2, func() { arrived = eng.Now() })
	eng.Run()
	if arrived != 10 {
		t.Fatalf("arrival = %d, want 10", arrived)
	}
	if n.Link(CUToL2).Messages != 1 {
		t.Fatal("message not counted")
	}
}

func TestUnknownRouteZeroLatency(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	delivered := false
	n.Send(numRoutes, func() { delivered = true })
	eng.Run()
	if !delivered || eng.Now() != 0 {
		t.Fatalf("unknown route: delivered=%v at %d", delivered, eng.Now())
	}
	if n.Latency(numRoutes) != 0 || n.Latency(CPUToGPU) != 0 {
		t.Fatal("unknown route latency not 0")
	}
}

func TestBandwidthLimitedLink(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	n.AddLink(L2ToIOMMU, 5, 1)
	var arrivals []uint64
	for i := 0; i < 3; i++ {
		n.Send(L2ToIOMMU, func() { arrivals = append(arrivals, eng.Now()) })
	}
	eng.Run()
	want := []uint64{5, 6, 7}
	for i, w := range want {
		if arrivals[i] != w {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	n.AddLink(CPUToGPU, 25, 0)
	if n.RoundTrip(CPUToGPU) != 50 {
		t.Fatalf("RoundTrip = %d, want 50", n.RoundTrip(CPUToGPU))
	}
}
