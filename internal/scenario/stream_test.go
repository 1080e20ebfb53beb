package scenario

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testKey is a phase generator's inputs for a scaled gcc phase.
func testKey(t *testing.T, seed int64) genKey {
	t.Helper()
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	return genKey{prof.Scaled(400), dram.DefaultConfig().TotalLines(), seed}
}

// generated returns the first n records a fresh generator for key yields.
func generated(t *testing.T, key genKey, n int) []trace.Record {
	t.Helper()
	gen, err := workload.NewGenerator(key.prof, key.lines, key.seed)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Take(n)
}

// TestStreamHubReplaysGenerator: two runs sharing a hub, one slowed by
// yields, each read phase after phase exactly the records a fresh
// generator yields. The window bounds the chunk buffers the hub ever
// allocates to streamWindow+1, whatever the phases' lengths, and every
// stream and run is gone once both have left.
func TestStreamHubReplaysGenerator(t *testing.T) {
	lengths := []int{10*streamChunk + 7, 3, 2 * streamChunk, 5*streamChunk + 1}
	keys := make([]genKey, len(lengths))
	want := make([][]trace.Record, len(lengths))
	for p, n := range lengths {
		keys[p] = testKey(t, int64(p))
		want[p] = generated(t, keys[p], n)
	}
	h := newStreamHub()
	lines := keys[0].lines
	readers := []*streamReader{h.join(lines), h.join(lines)}
	errs := make([]error, len(readers))
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.leave()
			for p, key := range keys {
				if err := r.open(key); err != nil {
					errs[i] = err
					return
				}
				for j, w := range want[p] {
					if got, ok := r.Next(); !ok || got != w {
						errs[i] = fmt.Errorf("reader %d, phase %d, record %d: got %+v (ok %v), want %+v", i, p, j, got, ok, w)
						return
					}
					if i == 1 && j%64 == 0 {
						runtime.Gosched()
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(h.readers) != 0 || len(h.streams) != 0 {
		t.Errorf("after both left the hub holds %d runs and %d streams, want none", len(h.readers), len(h.streams))
	}
	if n := len(h.free); n > streamWindow+1 {
		t.Errorf("hub allocated %d chunk buffers, want at most %d", n, streamWindow+1)
	}
}

// TestStreamHubLeaveFreesWaiters: a run that is a window ahead waits on
// the slowest run, and goes on once that run leaves, whether the slowest
// had opened the stream or not (a primary that fails before its first
// phase). Once both have left, the hub holds no stream.
func TestStreamHubLeaveFreesWaiters(t *testing.T) {
	key := testKey(t, 1)
	for _, opened := range []bool{false, true} {
		h := newStreamHub()
		slow, fast := h.join(key.lines), h.join(key.lines)
		if opened {
			if err := slow.open(key); err != nil {
				t.Fatal(err)
			}
			slow.Next()
		}
		read := func() error {
			if err := fast.open(key); err != nil {
				return err
			}
			for range 3 * streamWindow * streamChunk {
				if _, ok := fast.Next(); !ok {
					return fmt.Errorf("stream ended early")
				}
			}
			return nil
		}
		done := make(chan error, 1)
		go func() {
			err := read()
			fast.leave()
			done <- err
		}()
		// Let the fast run reach the window's edge before the slow run
		// leaves.
		for {
			h.mu.Lock()
			lead := fast.fetched - slow.fetched
			h.mu.Unlock()
			if lead > streamWindow {
				t.Fatalf("opened %v: the fast run is %d chunks ahead, past the %d-chunk window", opened, lead, streamWindow)
			}
			if lead == streamWindow {
				break
			}
			runtime.Gosched()
		}
		slow.leave()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("opened %v: a run still waits on a run that left", opened)
		}
		if len(h.streams) != 0 || len(h.readers) != 0 {
			t.Errorf("opened %v: after both left the hub holds %d streams and %d runs, want none", opened, len(h.streams), len(h.readers))
		}
	}
}
