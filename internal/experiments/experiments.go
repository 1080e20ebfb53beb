// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V and VI): each Table*/Fig* function runs the
// required simulations or analytic models and returns both structured
// data and a rendered text table whose rows mirror what the paper
// reports. Exhibits lists them in run order; cmd/paperbench is a thin
// wrapper over that list.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checker"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ErrBadOptions reports invalid harness options.
var ErrBadOptions = errors.New("experiments: invalid options")

// PaperInstructions is the slice length the paper simulates per
// benchmark (Section IV-B: 4 billion instructions).
const PaperInstructions = 4_000_000_000

// Options control simulation scale.
type Options struct {
	// Scale divides the paper's 4-billion-instruction slices; workload
	// footprints and SMD windows shrink by the same factor so transient
	// ratios are preserved (see workload.Profile.Scaled). Scale 1 is the
	// paper's full scale; the default harness scale is 400.
	Scale int
	// Seed drives workload generation.
	Seed int64
	// Parallel is the number of harness workers (0 = GOMAXPROCS). A
	// worker runs one task at a time: the jobs that replay one record
	// stream, stepped in lockstep over a single generated copy of it, so
	// a worker holds several simulations at once (see runMany).
	Parallel int
	// Obs, when non-nil, is threaded into every simulation the harness
	// runs. The recorder's counters are atomic and its event log is
	// locked, so parallel runs may share it; nil (the default) keeps
	// telemetry off.
	Obs *obs.Recorder
	// Check, when non-nil, attaches run-time invariant checkers
	// (internal/checker) to every simulation. The suite is locked, so
	// parallel runs share it; nil (the default) keeps checking off.
	Check *checker.Suite
	// legacyStepping runs every simulation on the controller's
	// per-cycle reference path (memctrl.Config.LegacyStepping), for the
	// determinism matrix's stepping axis.
	legacyStepping bool
}

// DefaultOptions returns the harness defaults.
func DefaultOptions() Options {
	return Options{Scale: 400, Seed: 1}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Scale < 1 {
		return fmt.Errorf("%w: scale=%d", ErrBadOptions, o.Scale)
	}
	if o.Parallel < 0 {
		return fmt.Errorf("%w: parallel=%d", ErrBadOptions, o.Parallel)
	}
	return nil
}

// Instructions returns the per-benchmark slice length at this scale.
func (o Options) Instructions() int64 {
	n := int64(PaperInstructions) / int64(o.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// parallel returns the worker-pool width.
func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// SimConfig builds the scheme's simulation config at this scale: the
// paper's 4-billion-instruction slice and its SMD window (at least one
// cycle) both divided by Scale, the workload seed, the options'
// recorder and checkers, and their controller stepping.
func (o Options) SimConfig(k sim.SchemeKind) sim.Config {
	cfg := sim.DefaultConfig(k, o.Instructions())
	cfg.Seed = o.Seed
	cfg.Ctrl.LegacyStepping = o.legacyStepping
	cfg.MECC.SMDWindowCycles /= uint64(o.Scale)
	if cfg.MECC.SMDWindowCycles == 0 {
		cfg.MECC.SMDWindowCycles = 1
	}
	cfg.Obs = o.Obs
	cfg.Check = o.Check
	return cfg
}

// runJob is one (benchmark, variant) simulation request.
type runJob struct {
	prof workload.Profile
	cfg  sim.Config
}

// records estimates how many trace records the job's stream holds: its
// reads (budget × MPKI/1000) and the writebacks that trail them.
func (j runJob) records() float64 {
	return float64(j.cfg.Instructions) * j.prof.MPKI / 1000 * (1 + j.prof.WriteFrac)
}

// task is a set of jobs that replay one record stream, run together by
// sim.RunBenchmarks: indexes into the job list and their summed records
// estimate.
type task struct {
	jobs []int
	est  float64
}

// planTasks groups jobs that replay the same record stream (equal
// sim.StreamKey) into tasks, largest estimate first. A group whose
// estimate exceeds a worker's fair share, the total estimate ÷ width, is
// split into ⌈estimate ÷ share⌉ equal parts (at most one job each), so
// no single task holds back the end of the run.
func planTasks(jobs []runJob, width int) []task {
	groupOf := make(map[sim.StreamKey]int)
	var groups [][]int
	var total float64
	for i, j := range jobs {
		k := j.cfg.Stream(j.prof)
		g, ok := groupOf[k]
		if !ok {
			g = len(groups)
			groupOf[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
		total += j.records()
	}
	share := total / float64(width)
	var tasks []task
	for _, g := range groups {
		per := jobs[g[0]].records()
		parts := 1
		if est := per * float64(len(g)); est > share {
			parts = min(len(g), int(math.Ceil(est/share)))
		}
		for p := 0; p < parts; p++ {
			part := g[p*len(g)/parts : (p+1)*len(g)/parts]
			tasks = append(tasks, task{jobs: part, est: per * float64(len(part))})
		}
	}
	sort.SliceStable(tasks, func(a, b int) bool { return tasks[a].est > tasks[b].est })
	return tasks
}

// runMany executes jobs on width workers and returns their results in
// job order. Each worker takes the next task of planTasks and runs its
// jobs in lockstep over one generated record stream. The first error
// stops dispatch; runMany waits for the tasks in flight and returns it.
// With telemetry attached it sets the shared progress total to the sum
// of the jobs' instruction budgets (each runner adds its retired
// instructions as it publishes) and wraps each simulation in a trace
// span (wall-clock nanoseconds — the harness's clock domain) that the
// runner's own CPU-cycle "run" span parents under.
func runMany(jobs []runJob, width int) ([]sim.Result, error) {
	results := make([]sim.Result, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	var budget uint64
	for _, j := range jobs {
		budget += uint64(j.cfg.Instructions)
	}
	jobs[0].cfg.Obs.Progress().SetWork(0, budget)

	tasks := planTasks(jobs, width)
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < min(width, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(tasks) {
					return
				}
				if err := runTask(jobs, tasks[i].jobs, results); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// runTask runs the jobs at the given indexes, which share one record
// stream, and stores their results at the same indexes.
func runTask(jobs []runJob, idx []int, results []sim.Result) error {
	cfgs := make([]sim.Config, len(idx))
	spans := make([]*obs.Span, len(idx))
	for n, i := range idx {
		j := jobs[i]
		if rec := j.cfg.Obs; rec.Tracing(obs.KindSpanStart) {
			spans[n] = rec.StartSpan(
				fmt.Sprintf("job:%s/%s", j.prof.Name, j.cfg.Scheme), uint64(time.Now().UnixNano()))
			j.cfg.SpanParent = spans[n].ID()
		}
		cfgs[n] = j.cfg
	}
	res, err := sim.RunBenchmarks(jobs[idx[0]].prof, cfgs)
	end := uint64(time.Now().UnixNano())
	for _, sp := range spans {
		sp.End(end)
	}
	if err != nil {
		return err
	}
	for n, i := range idx {
		results[i] = res[n]
	}
	return nil
}

// Suite runs every harness simulation of one evaluation and keeps each
// result, so an exhibit that repeats a job an earlier exhibit ran — the
// benchmark × scheme matrix Figs. 3, 7, 9 and 10 share, Fig 12's default
// latency, Fig 14's MPKC-2 runs — reads it instead of simulating again.
type Suite struct {
	opts Options

	// mu serializes run, so a job two callers request at once runs once.
	mu   sync.Mutex
	done map[runJob]*sim.Result
}

// NewSuite builds an empty suite at the given options.
func NewSuite(opts Options) (*Suite, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Suite{opts: opts, done: make(map[runJob]*sim.Result)}, nil
}

// Options returns the suite's options.
func (s *Suite) Options() Options { return s.opts }

// run returns the jobs' results in job order. It sends runMany only the
// jobs no earlier call has run, keyed by the whole job (profile and
// config), and serves the rest from the suite. Results are shared
// between callers, Checkpoints and MECC stats included: no caller may
// modify one.
func (s *Suite) run(jobs []runJob) ([]sim.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := 0
	for _, j := range jobs {
		if _, ok := s.done[j]; !ok {
			fresh++
		}
	}
	todo := jobs
	if fresh < len(jobs) {
		todo = make([]runJob, 0, fresh)
		for _, j := range jobs {
			if _, ok := s.done[j]; !ok {
				todo = append(todo, j)
			}
		}
	}
	res, err := runMany(todo, s.opts.parallel())
	if err != nil {
		return nil, err
	}
	for i, j := range todo {
		s.done[j] = &res[i]
	}
	if fresh == len(jobs) {
		return res, nil
	}
	out := make([]sim.Result, len(jobs))
	for i, j := range jobs {
		out[i] = *s.done[j]
	}
	return out, nil
}

// Matrix returns every benchmark's result under each of the given
// schemes, keyed by benchmark name, then scheme. It is a view over run,
// so a (benchmark, scheme) pair an earlier call ran is not run again,
// and the results are shared as run's are: do not modify them.
func (s *Suite) Matrix(schemes ...sim.SchemeKind) (map[string]map[sim.SchemeKind]sim.Result, error) {
	profs := workload.All()
	jobs := make([]runJob, 0, len(profs)*len(schemes))
	for _, p := range profs {
		for _, k := range schemes {
			jobs = append(jobs, runJob{prof: p.Scaled(s.opts.Scale), cfg: s.opts.SimConfig(k)})
		}
	}
	res, err := s.run(jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[sim.SchemeKind]sim.Result, len(profs))
	for i, p := range profs {
		row := make(map[sim.SchemeKind]sim.Result, len(schemes))
		for n, k := range schemes {
			row[k] = res[i*len(schemes)+n]
		}
		out[p.Name] = row
	}
	return out, nil
}
