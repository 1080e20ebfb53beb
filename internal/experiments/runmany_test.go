package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// perJobResults runs each job alone through sim.NewRunner, with a fresh
// generator of its own: the reference runMany's shared streams must
// reproduce.
func perJobResults(t *testing.T, jobs []runJob) []sim.Result {
	t.Helper()
	out := make([]sim.Result, len(jobs))
	for i, j := range jobs {
		r, err := sim.NewRunner(j.prof, j.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = r.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// profiles looks up the named benchmarks' profiles.
func profiles(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	var out []workload.Profile
	for _, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestRunManyMatchesPerJobRuns requires runMany's lockstep tasks to give
// exactly the results of separate runs at widths 1, 2 and 16, over Fig
// 7's job order, Fig 12's interleaved order, and AblationMapping's list,
// whose libq group is split at width 2.
func TestRunManyMatchesPerJobRuns(t *testing.T) {
	opts := Options{Scale: 8000, Seed: 3}
	mapping, _, err := mappingJobs(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig12, _ := fig12Jobs(opts, profiles(t, "lbm", "gcc", "omnetpp"))
	for _, c := range []struct {
		name string
		jobs []runJob
	}{
		{"fig7", fig7Jobs(t, opts, "libq", "milc", "wrf")},
		{"fig12", fig12},
		{"mapping", mapping},
	} {
		want := perJobResults(t, c.jobs)
		for _, width := range []int{1, 2, 16} {
			got, err := runMany(c.jobs, width)
			if err != nil {
				t.Fatalf("%s width %d: %v", c.name, width, err)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s width %d: job %d (%s/%s) differs from its separate run",
						c.name, width, i, c.jobs[i].prof.Name, c.jobs[i].cfg.Scheme)
				}
			}
		}
	}
}

// TestPlanTasks pins the split rule: groups follow the stream inputs,
// tasks come largest estimate first, and only a group above a worker's
// fair share is split, into equal parts.
func TestPlanTasks(t *testing.T) {
	opts := Options{Scale: 8000, Seed: 3}
	mapping, _, err := mappingJobs(opts)
	if err != nil {
		t.Fatal(err)
	}
	sizes := func(tasks []task) [][]int {
		var out [][]int
		for _, tk := range tasks {
			out = append(out, tk.jobs)
		}
		return out
	}
	// libq (jobs 0-2) carries about 72% of the estimate: whole at width
	// 1, halved at width 2 (above the 50% share), and split three ways at
	// width 16 while omnetpp's 28% is split into three as well.
	for _, c := range []struct {
		width int
		want  [][]int
	}{
		{1, [][]int{{0, 1, 2}, {3, 4, 5}}},
		{2, [][]int{{1, 2}, {3, 4, 5}, {0}}},
		{16, [][]int{{0}, {1}, {2}, {3}, {4}, {5}}},
	} {
		if got := sizes(planTasks(mapping, c.width)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("width %d: tasks %v, want %v", c.width, got, c.want)
		}
	}
	// Fig 12's interleaved list regroups by stream: one task per benchmark
	// holding its eight latency/scheme jobs, at width 1.
	jobs, _ := fig12Jobs(opts, profiles(t, "lbm", "gcc", "omnetpp"))
	for _, tk := range planTasks(jobs, 1) {
		if len(tk.jobs) != 8 {
			t.Fatalf("fig12 task %v, want 8 jobs", tk.jobs)
		}
		for _, i := range tk.jobs {
			if jobs[i].prof != jobs[tk.jobs[0]].prof {
				t.Fatalf("fig12 task %v mixes benchmarks", tk.jobs)
			}
		}
	}
	var est float64
	for _, tk := range planTasks(jobs, 1) {
		if est > 0 && tk.est > est {
			t.Fatalf("tasks not in decreasing estimate order")
		}
		est = tk.est
	}
}

// TestRunManyStopsOnError runs a job list whose largest task holds an
// invalid scheme at width 1: runMany must return the task's error,
// dispatch no later task, and leave no worker behind.
func TestRunManyStopsOnError(t *testing.T) {
	rec := obs.New()
	log := obs.NewEventLog(obs.MaskOf(obs.KindSpanStart), 1024)
	rec.AddEventLog(log)
	opts := Options{Scale: 8000, Seed: 1, Obs: rec}
	jobs := fig7Jobs(t, opts, "lbm", "gcc", "wrf")
	jobs[2].cfg.Scheme = sim.SchemeKind(99) // lbm, the largest stream
	before := runtime.NumGoroutine()
	if _, err := runMany(jobs, 1); !errors.Is(err, sim.ErrBadScheme) {
		t.Fatalf("runMany err = %v, want sim.ErrBadScheme", err)
	}
	if jobSpans := countJobSpans(log); jobSpans != 4 {
		t.Errorf("%d job spans started, want only the failing task's 4", jobSpans)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after runMany, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	// At width 2 the error still comes back with the other worker joined.
	if _, err := runMany(jobs, 2); !errors.Is(err, sim.ErrBadScheme) {
		t.Fatalf("width 2: runMany err = %v, want sim.ErrBadScheme", err)
	}
}

// countJobSpans counts the harness job spans log holds.
func countJobSpans(log *obs.EventLog) int {
	n := 0
	for _, e := range log.Events() {
		if e.Kind == obs.KindSpanStart && strings.HasPrefix(e.Name, "job:") {
			n++
		}
	}
	return n
}

// TestSuiteRunsEachJobOnce counts the simulations a suite starts: two
// concurrent Matrix calls over the same schemes start each job once,
// and Fig 12 then starts only the jobs the suite has not run (the
// baseline row and the three non-default decode latencies), yet renders
// as on a fresh suite.
func TestSuiteRunsEachJobOnce(t *testing.T) {
	const window = 1 << 14
	rec := obs.New()
	log := obs.NewEventLog(obs.MaskOf(obs.KindSpanStart), window)
	rec.AddEventLog(log)
	s := newSuite(t, Options{Scale: 40000, Seed: 1, Obs: rec})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Matrix(sim.SchemeECC6, sim.SchemeMECC)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if n := countJobSpans(log); n != 56 {
		t.Errorf("two Matrix(ECC-6, MECC) calls ran %d jobs, want 56", n)
	}
	got, err := Fig12(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := countJobSpans(log); n != 56+28+168 {
		t.Errorf("after Fig 12 the suite has run %d jobs, want 56+28+168", n)
	}
	if log.Count(obs.KindSpanStart) > window {
		t.Fatal("the span window dropped events")
	}
	want, err := Fig12(newSuite(t, Options{Scale: 40000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rendered != want.Rendered {
		t.Errorf("Fig 12 from the cache:\n%s\nfrom a fresh suite:\n%s", got.Rendered, want.Rendered)
	}
}
