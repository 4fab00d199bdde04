package verify

import (
	"sync"
	"testing"

	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/topology"
)

// countWalks records every BuildCDG walk by function name until the
// returned stop is called.
func countWalks() (walks map[string]int, stop func()) {
	var mu sync.Mutex
	walks = make(map[string]int)
	prev := routing.SetCDGWalkHook(func(name string) {
		mu.Lock()
		walks[name]++
		mu.Unlock()
	})
	return walks, func() { routing.SetCDGWalkHook(prev) }
}

// TestCertifyWalksEachFunctionOnce: one walk per routing function serves
// the deadlock and the livelock proofs. A cold Certify of a Duato torus
// walks the function and its escape once each; a second Certify of the
// same shape walks nothing.
func TestCertifyWalksEachFunctionOnce(t *testing.T) {
	routing.ResetCDGCache()
	walks, stop := countWalks()
	defer stop()
	torus := topology.MustCube([]int{6, 6}, true)
	sp := baseSpec(torus, "duato", 3, protocol.CLRP)
	cert := mustCertify(t, sp)
	if !cert.Certified || cert.Deadlock.Method != "escape" {
		t.Fatalf("test premise: want an escape certificate, got %s", cert.Failure())
	}
	want := map[string]int{cert.Routing: 1, cert.Escape: 1}
	if len(walks) != len(want) || walks[cert.Routing] != 1 || walks[cert.Escape] != 1 {
		t.Fatalf("cold Certify walked %v, want %v", walks, want)
	}

	clear(walks)
	mustCertify(t, sp)
	if len(walks) != 0 {
		t.Fatalf("warm Certify walked %v, want nothing", walks)
	}
}

// BenchmarkCertifyCold certifies the 16x16 torus with Duato routing under
// CLRP from an empty dependency-graph cache each iteration: the cost a
// first submission of that shape pays before it runs.
func BenchmarkCertifyCold(b *testing.B) {
	torus := topology.MustCube([]int{16, 16}, true)
	sp := baseSpec(torus, "duato", 3, protocol.CLRP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		routing.ResetCDGCache()
		cert, err := Certify(sp)
		if err != nil || !cert.Certified {
			b.Fatalf("Certify: %v %v", err, cert)
		}
	}
}
