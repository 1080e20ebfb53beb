package batch

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestSetObserverConcurrentWithRun is the race-detector regression test
// for the counter-set publication: SetObserver swaps recorders (and
// detaches) while Default().Run traffic and telemetry emission run full
// tilt on other goroutines. Before the atomic counter-set fix, the four
// package-level counter pointers were plain words and `go test -race`
// flagged this exact interleaving.
func TestSetObserverConcurrentWithRun(t *testing.T) {
	defer SetObserver(nil)
	recA, recB := obs.New(), obs.New()

	var stop atomic.Bool
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; !stop.Load(); i++ {
			switch i % 3 {
			case 0:
				SetObserver(recA)
			case 1:
				SetObserver(recB)
			default:
				SetObserver(nil)
			}
		}
	}()

	// Traffic: Run calls large enough to fan out to the default pool's
	// workers, with per-index writes and telemetry emission from the
	// work function.
	const items = 256
	outs := make([][]int, 4)
	var traffic sync.WaitGroup
	for g := range outs {
		outs[g] = make([]int, items)
		out := outs[g]
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			for r := 0; r < 50; r++ {
				Default().Run(items, 1, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = i
					}
					recA.Emit(obs.Event{Kind: obs.KindDecode, T: uint64(lo)})
				})
			}
		}()
	}
	traffic.Wait()
	stop.Store(true)
	swapper.Wait()

	for g, out := range outs {
		for i, v := range out {
			if v != i {
				t.Fatalf("outs[%d][%d] = %d, want %d", g, i, v, i)
			}
		}
	}
}
