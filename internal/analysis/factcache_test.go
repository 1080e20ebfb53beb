package analysis_test

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
)

// TestFactCacheRoundTrip pins the cache's core guarantees on a fixture
// package: the cold run misses, the warm run replays every diagnostic
// from metadata alone, the replayed diagnostics equal the fresh ones
// exactly, and narrowing the analyzer selection invalidates the
// universe so the fast path is not taken with stale global facts.
func TestFactCacheRoundTrip(t *testing.T) {
	cache, err := analysis.OpenFactCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	all := analysis.All()
	patterns := []string{"./testdata/src/conc"}

	cold, coldStats, err := analysis.RunCached(cache, ".", patterns, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.FastPath || coldStats.Warm != 0 || coldStats.Roots != 1 {
		t.Fatalf("cold stats = %+v, want a full miss over one root", coldStats)
	}
	if len(cold) == 0 {
		t.Fatal("the conc fixture must produce findings")
	}

	warm, warmStats, err := analysis.RunCached(cache, ".", patterns, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warmStats.FastPath || warmStats.Warm != warmStats.Roots {
		t.Fatalf("warm stats = %+v, want the metadata-only fast path", warmStats)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("cached replay differs from the fresh run:\ncold: %v\nwarm: %v", cold, warm)
	}

	// A different analyzer selection is a different universe: the
	// cached global facts must not be replayed wholesale.
	sub, err := analysis.Select([]string{"concsafety"})
	if err != nil {
		t.Fatal(err)
	}
	_, subStats, err := analysis.RunCached(cache, ".", patterns, sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if subStats.FastPath {
		t.Fatalf("narrowed analyzer set took the fast path: %+v", subStats)
	}
}
