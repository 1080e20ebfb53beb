// Command bench is the repository's benchmark. One invocation measures
// one workload on one seed. It runs whole rounds until the measuring time
// is spent, each round a fresh child process with GOMAXPROCS fixed, checks
// every round's output, and prints one JSON line.
//
// With -trace 0 the line holds the end-to-end metrics. Each round of the
// program under test is paired with a round of the reference build, the
// same workload built from the source pinned in bench/reference, run just
// before or after it; set-up runs are paired the same way. A host time is
// the median over the pairs of the program's time over the reference's,
// times the reference's time recorded in bench/reference/times.json. A
// slow phase of the shared host slows both sides of a pair alike, so it
// cancels.
//
// With -trace 1 the line holds the per-layer breakdown, measured from
// outside the program: one untraced round, then traced rounds under a CPU
// profile whose samples are charged to the innermost repro/internal
// package on their stack.
//
// bench/run.sh builds the benchmark, paperbench and the reference build
// and runs it from the repository root:
//
//	bash bench/run.sh --workload fig7-lib --seed 1 --seconds 25 --trace 0
//
// bench/README.md describes the workloads and the metrics.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// workloadNames lists the workloads; fig7-cli runs paperbench, the others
// run this binary as a library child.
var workloadNames = []string{"fig7-cli", "fig7-lib", "phone-week", "integrity"}

// goldenJSON maps each workload to the SHA-256 of its seed-1 output at
// full size.
//
//go:embed golden.json
var goldenJSON []byte

const (
	// setupsPerRound pairs of set-up-only children run before each timed
	// pair of an end-to-end invocation; setup_s is the median over all of
	// them, so it samples the host over the whole run, as the rounds do.
	setupsPerRound = 3
	// minRounds timed rounds run even when the measuring time is spent,
	// so each median has three values.
	minRounds = 3
	// budget bounds one invocation: a child still running at its end is
	// killed.
	budget = 170 * time.Second
)

// sizes fixes the work one round of each workload does.
type sizes struct {
	// cliScale and libScale divide the paper's slice length for fig7-cli
	// (paperbench -scale) and fig7-lib (Options.Scale).
	cliScale, libScale int
	// phonePhases phase entries of the phone-week spec are kept.
	phonePhases int
	// integrityTrials lines are encoded and decoded per mode.
	integrityTrials int
}

// sizesFor returns the benchmark's sizes, or toy sizes for smoke tests.
func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{cliScale: 20000, libScale: 20000, phonePhases: 4, integrityTrials: 2000}
	}
	return sizes{cliScale: 4000, libScale: 2000, phonePhases: 11, integrityTrials: 150_000}
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	procs    int
	smoke    bool
	size     sizes
	// paperbench is the binary fig7-cli runs, self the binary library
	// children run, and work the directory traced rounds write profiles
	// to.
	paperbench, self, work string
	// refPaperbench and refSelf are the reference build's paperbench and
	// benchmark binaries.
	refPaperbench, refSelf string
	// refTimes holds the reference build's recorded host times.
	refTimes refTimes
}

// refTimes are the reference build's recorded times for one workload, in
// seconds: the scale end-to-end host times are reported in.
type refTimes struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := runChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	rep, err := measure(c, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload to measure: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&c.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&c.seconds, "seconds", 30, "how long to keep starting timed rounds")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics from traced rounds")
	fs.IntVar(&c.procs, "procs", runtime.NumCPU(), "GOMAXPROCS and simulation fan-out of every child")
	fs.BoolVar(&c.smoke, "smoke", false, "run toy sizes (tests)")
	fs.StringVar(&c.paperbench, "paperbench", filepath.Join(".bench_build", "paperbench"), "paperbench binary fig7-cli runs")
	fs.StringVar(&c.work, "work", filepath.Join(".bench_build", "work"), "directory for traced rounds' profiles")
	fs.StringVar(&c.refPaperbench, "ref-paperbench", filepath.Join(".bench_build", "ref", "paperbench"), "the reference build's paperbench")
	fs.StringVar(&c.refSelf, "ref-bench", filepath.Join(".bench_build", "ref", "bench"), "the reference build's benchmark binary")
	timesFile := fs.String("ref-times", filepath.Join("bench", "reference", "times.json"), "the reference build's recorded times")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	switch {
	case !slices.Contains(workloadNames, c.workload):
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames, ", "))
	case *trace != 0 && *trace != 1:
		return config{}, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case c.seconds < 0 || c.procs < 1:
		return config{}, fmt.Errorf("-seconds %g -procs %d: want seconds >= 0 and procs >= 1", c.seconds, c.procs)
	}
	c.traced = *trace == 1
	c.size = sizesFor(c.smoke)
	raw, err := os.ReadFile(*timesFile)
	if err != nil {
		return config{}, err
	}
	var times map[string]refTimes
	if err := json.Unmarshal(raw, &times); err != nil {
		return config{}, fmt.Errorf("%s: %w", *timesFile, err)
	}
	t := times[c.workload]
	if t.SetupS <= 0 || t.WallS <= 0 || t.CPUS <= 0 {
		return config{}, fmt.Errorf("%s: no reference times for %s", *timesFile, c.workload)
	}
	c.refTimes = t
	self, err := os.Executable()
	if err != nil {
		return config{}, err
	}
	c.self = self
	return c, nil
}

// report is the JSON line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// round is one finished child.
type round struct {
	wallS, cpuS, rssMB float64
	res                childResult
	// attr is the CPU profile's split by layer (traced rounds only).
	attr attribution
}

// invocation runs one measurement's children and checks their outputs.
type invocation struct {
	c   config
	ctx context.Context // ends with the budget
	log io.Writer
	// want is the digest every round must reproduce.
	want              string
	attempted, failed int
}

func measure(c config, log io.Writer) (report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	s := &invocation{c: c, ctx: ctx, log: log}

	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	if !c.traced {
		// prog and ref hold the program's and the reference's raw set-up,
		// wall and CPU times, ratios their quotients pair by pair.
		var prog, ref, ratios [3][]float64
		add := func(i int, p, r float64) {
			prog[i] = append(prog[i], p)
			ref[i] = append(ref[i], r)
			ratios[i] = append(ratios[i], p/r)
		}
		var rss []float64
		end := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
		for i := 0; i < minRounds || time.Now().Before(end); i++ {
			for j := 0; j < setupsPerRound; j++ {
				p, r, err := s.pair(setupsPerRound*i+j, true)
				if err != nil {
					return report{}, fmt.Errorf("set-up: %w", err)
				}
				add(0, p.wallS, r.wallS)
			}
			p, r, err := s.pair(i, false)
			if s.failed > 0 {
				break
			}
			if err != nil {
				return report{}, err
			}
			add(1, p.wallS, r.wallS)
			add(2, p.cpuS, r.cpuS)
			rss = append(rss, p.rssMB)
		}
		for i, name := range []string{"setup_s", "wall_s", "cpu_s"} {
			s.table(name, "s", prog[i])
			s.table(name+".ref", "s", ref[i])
			s.table(name+".ratio", "ratio", ratios[i])
		}
		s.table("peak_rss_mb", "MB", rss)
		set("setup_s", "s", c.refTimes.SetupS*median(ratios[0]))
		set("wall_s", "s", c.refTimes.WallS*median(ratios[1]))
		set("cpu_s", "s", c.refTimes.CPUS*median(ratios[2]))
		set("peak_rss_mb", "MB", median(rss))
	} else {
		if err := os.MkdirAll(c.work, 0o755); err != nil {
			return report{}, err
		}
		base, err := s.run("")
		if err == nil {
			prof := filepath.Join(c.work, c.workload+".cpu.pprof")
			if traced := s.timed(prof); len(traced) > 0 {
				layerMetrics(c, base, traced, set)
			}
		}
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(log, "%-34s %-10s %-6s %.6g\n", name, c.workload, m[name].Unit, m[name].Value)
		}
	}
	return report{
		Correct:   s.attempted > 0 && s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   m,
	}, nil
}

// table prints one end-to-end quantity's median, quartiles, count and
// raw values on the log.
func (s *invocation) table(name, unit string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	raw := make([]string, len(xs))
	for i, x := range xs {
		raw[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	fmt.Fprintf(s.log, "%-17s %-10s %-5s median %-10.5g q1 %-10.5g q3 %-10.5g n %-3d [%s]\n",
		name, s.c.workload, unit, med, q1, q3, len(xs), strings.Join(raw, " "))
}

// pair runs one child of the program and one of the reference build, the
// program first on even turns, so that neither side always runs first.
// Set-up pairs run the set-up-only children; other pairs run checked
// rounds of the program.
func (s *invocation) pair(turn int, setup bool) (prog, ref round, err error) {
	for side := turn; side < turn+2; side++ {
		switch {
		case side%2 == 1:
			if ref, err = s.exec(true, setup, ""); err != nil {
				return prog, ref, fmt.Errorf("reference build: %w", err)
			}
		case setup:
			prog, err = s.exec(false, true, "")
		default:
			prog, err = s.run("")
		}
		if err != nil {
			return prog, ref, err
		}
	}
	return prog, ref, nil
}

// timed runs checked, profiled rounds until the measuring time is spent
// and at least one has run. It stops at the first failed round.
func (s *invocation) timed(prof string) []round {
	end := time.Now().Add(time.Duration(s.c.seconds * float64(time.Second)))
	var rounds []round
	for len(rounds) < 1 || time.Now().Before(end) {
		r, err := s.run(prof)
		if err != nil {
			break
		}
		rounds = append(rounds, r)
	}
	return rounds
}

// run executes one timed round, checks its output and counts it.
func (s *invocation) run(prof string) (round, error) {
	s.attempted++
	r, err := s.exec(false, false, prof)
	if err == nil {
		err = s.check(r.res.Digest)
	}
	if err != nil {
		s.failed++
		fmt.Fprintf(s.log, "bench: %s round %d failed: %v\n", s.c.workload, s.attempted, err)
	}
	return r, err
}

// check compares a round's digest with the first round's, and the first
// with the recorded seed-1 golden at full size.
func (s *invocation) check(d string) error {
	if d == "" {
		return errors.New("no output digest")
	}
	if s.want != "" {
		if d != s.want {
			return fmt.Errorf("digest %s differs from the first round's %s", d, s.want)
		}
		return nil
	}
	s.want = d
	fmt.Fprintf(s.log, "bench: %s seed %d digest %s\n", s.c.workload, s.c.seed, d)
	if s.c.seed != 1 || s.c.smoke {
		return nil
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if g := golden[s.c.workload]; g != d {
		return fmt.Errorf("digest %s differs from the seed-1 golden %s", d, g)
	}
	return nil
}

// argv is a child's command line: the reference build's when ref is set,
// the set-up-only form when setup is set, a traced round profiling into
// prof when prof is set.
func (c config) argv(ref, setup bool, prof string) []string {
	seed, procs := strconv.FormatInt(c.seed, 10), strconv.Itoa(c.procs)
	paperbench, self := c.paperbench, c.self
	if ref {
		paperbench, self = c.refPaperbench, c.refSelf
	}
	if c.workload == "fig7-cli" {
		// Table II prints a constant table, so that run is paperbench's
		// start-up with the same flags and no simulation.
		exp := "fig7"
		if setup {
			exp = "table2"
		}
		args := []string{paperbench, "-experiment", exp, "-scale", strconv.Itoa(c.size.cliScale), "-seed", seed, "-parallel", procs}
		if prof != "" {
			args = append(args, "-cpuprofile", prof)
		}
		return args
	}
	args := []string{self, "child", "-workload", c.workload, "-seed", seed, "-procs", procs}
	if c.smoke {
		args = append(args, "-smoke")
	}
	if setup {
		args = append(args, "-setup-only")
	}
	if prof != "" {
		args = append(args, "-cpuprofile", prof)
	}
	return args
}

// exec runs one child to completion and reads its output: wall time from
// start to exit, CPU and peak RSS from its rusage.
func (s *invocation) exec(ref, setup bool, prof string) (round, error) {
	argv := s.c.argv(ref, setup, prof)
	cmd := exec.CommandContext(s.ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(s.c.procs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = s.log
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return round{}, fmt.Errorf("%s: %w", strings.Join(argv, " "), err)
	}
	st := cmd.ProcessState
	r := round{wallS: wall, cpuS: (st.UserTime() + st.SystemTime()).Seconds()}
	if setup {
		return r, nil
	}
	if r.res, err = s.c.parse(stdout.Bytes()); err != nil {
		return round{}, err
	}
	r.rssMB = r.res.PeakRSSMB
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok && s.c.workload == "fig7-cli" {
		// paperbench cannot report its own peak. Its Maxrss counts this
		// process's peak too (see peakRSSMB), but that is well under
		// paperbench's 23 MB.
		r.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	if prof != "" {
		p, err := readProfile(prof)
		if err != nil {
			return round{}, err
		}
		if r.attr, err = attribute(p); err != nil {
			return round{}, err
		}
	}
	return r, nil
}

// parse reads a finished round's standard output.
func (c config) parse(stdout []byte) (childResult, error) {
	if c.workload == "fig7-cli" {
		return parseCLI(stdout, c.size.cliScale)
	}
	out := bytes.TrimSpace(stdout)
	var res childResult
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &res); err != nil {
		return childResult{}, fmt.Errorf("child output: %w", err)
	}
	return res, nil
}

// parseCLI reads paperbench's output. The Fig 7 section is the digested
// output, its ALL row gives the MECC geomean, and the counter table gives
// the layer counts.
func parseCLI(stdout []byte, scale int) (childResult, error) {
	out := string(stdout)
	start := strings.Index(out, "=== Fig 7")
	if start < 0 {
		return childResult{}, errors.New("paperbench printed no Fig 7 section")
	}
	section := out[start:]
	if end := strings.Index(section, "\n\n==="); end >= 0 {
		section = section[:end+1]
	}
	c := map[string]float64{}
	var ipc float64
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "ALL" {
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return childResult{}, fmt.Errorf("Fig 7 ALL row: %w", err)
			}
			ipc = v
		}
		if len(f) == 2 {
			if v, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				c[f[0]] = float64(v)
			}
		}
	}
	reads := c["mecc_strong_reads_total"] + c["mecc_weak_reads_total"]
	var cmds float64
	for name, v := range c {
		if strings.HasPrefix(name, "dram_") && name != "dram_self_refresh_pulses_total" {
			cmds += v
		}
	}
	jobs := len(workload.All()) * len(fig7Schemes)
	return childResult{Digest: digest([]byte(section)), Counts: map[string]float64{
		"sim.instructions":         float64(jobs) * float64(experiments.Options{Scale: scale}.Instructions()),
		"sim.mecc_norm_ipc":        ipc,
		"core.reads":               reads,
		"core.strong_read_ratio":   ratio(c["mecc_strong_reads_total"], reads),
		"core.downgrades":          c["mecc_downgrades_total"],
		"core.upgraded_lines":      c["mecc_upgraded_lines_total"],
		"core.sweeps":              c["mecc_sweeps_total"],
		"core.smd_enable_ratio":    ratio(c["mecc_smd_enables_total"], c["mecc_smd_windows_total"]),
		"memctrl.requests":         c["memctrl_reads_total"] + c["memctrl_writes_total"],
		"memctrl.write_drains":     c["memctrl_write_drains_total"],
		"sched.wheel_scheduled":    c["sched_wheel_scheduled_total"],
		"dram.commands":            cmds,
		"dram.self_refresh_pulses": c["dram_self_refresh_pulses_total"],
	}}, nil
}

// selfLayers are the packages whose self time is reported; "other"
// collects every remaining repro/internal package, so the layers sum to
// the profile's total.
var selfLayers = []string{
	"experiments", "workload", "trace", "sim", "cpu", "core", "memctrl", "sched", "dram", "power",
	"obs", "checker", "scenario", "bch", "gf2", "hamming", "ecc", "batch", "retention", "runtime", "other",
}

// countUnits are the per-layer counts and model outputs children report.
// A workload that never reaches a layer reports 0.
var countUnits = map[string]string{
	"sim.instructions":                "count",
	"sim.mecc_norm_ipc":               "ratio",
	"sim.mecc_energy_mj":              "mJ",
	"core.reads":                      "count",
	"core.strong_read_ratio":          "ratio",
	"core.downgrades":                 "count",
	"core.upgraded_lines":             "count",
	"core.sweeps":                     "count",
	"core.smd_enable_ratio":           "ratio",
	"memctrl.requests":                "count",
	"memctrl.avg_read_latency_cycles": "cycles",
	"memctrl.write_drains":            "count",
	"sched.wheel_scheduled":           "count",
	"dram.commands":                   "count",
	"dram.row_hit_ratio":              "ratio",
	"dram.self_refresh_pulses":        "count",
	"scenario.phases":                 "count",
	"bch.lines":                       "count",
	"bch.detected_uncorrectable":      "count",
	"retention.injected_errors":       "count",
}

// layerMetrics sets the per-layer metrics from the untraced base round
// and the traced rounds. Self times and shares come from the pooled
// profiles, per round; counts from the last round, since every round
// computes the same ones; span timings from every replayed job.
func layerMetrics(c config, base round, traced []round, set func(name, unit string, v float64)) {
	var attr attribution
	var cpus []float64
	var cpuSum float64
	var jobs []replayJob
	for _, r := range traced {
		attr.add(r.attr)
		cpus = append(cpus, r.cpuS)
		cpuSum += r.cpuS
		jobs = append(jobs, r.res.Jobs...)
	}
	n := float64(len(traced))
	last := traced[len(traced)-1].res

	layerNS := map[string]int64{}
	for pkg, ns := range attr.layerNS {
		if !slices.Contains(selfLayers, pkg) {
			pkg = "other"
		}
		layerNS[pkg] += ns
	}
	selfS := func(layer string) float64 { return float64(layerNS[layer]) / 1e9 / n }
	for _, l := range selfLayers {
		set(l+".self_s", "s", selfS(l))
	}
	for name, unit := range countUnits {
		set(name, unit, last.Counts[name])
	}
	set("memctrl.ns_per_request", "ns", ratio(selfS("memctrl")*1e9, last.Counts["memctrl.requests"]))
	set("dram.ns_per_command", "ns", ratio(selfS("dram")*1e9, last.Counts["dram.commands"]))
	set("bch.ns_per_line", "ns", ratio(selfS("bch")*1e9, last.Counts["bch.lines"]))
	set("obs.share", "ratio", ratio(float64(layerNS["obs"]), float64(attr.totalNS)))
	set("runtime.gc_cpu_share", "ratio", ratio(float64(attr.gcNS), float64(attr.totalNS)))
	// The live call's allocation: a traced fig7-lib round replays
	// pre-generated streams, which allocate far more.
	set("runtime.alloc_mb", "MB", base.res.AllocMB)

	var jobS []float64
	var genS, setupS, runS, records float64
	for _, j := range jobs {
		jobS = append(jobS, j.GenS+j.SetupS+j.RunS)
		genS += j.GenS
		setupS += j.SetupS
		runS += j.RunS
		records += float64(j.Records)
	}
	set("experiments.jobs", "count", float64(len(jobs))/n)
	set("experiments.job_s_p50", "s", percentile(jobS, 50))
	set("experiments.job_s_p90", "s", percentile(jobS, 90))
	set("experiments.job_s_max", "s", percentile(jobS, 100))
	set("experiments.fanout_efficiency", "ratio", ratio((genS+setupS+runS)/n, base.wallS*float64(c.procs)))
	set("workload.records", "count", records/n)
	set("workload.ns_per_record", "ns", ratio(genS*1e9, records))
	set("sim.setup_s", "s", setupS/n)
	set("sim.run_s", "s", runS/n)

	set("traced.samples", "count", float64(attr.samples))
	set("traced.residual_ratio", "ratio", ratio(math.Abs(float64(attr.totalNS)/1e9-cpuSum), cpuSum))
	set("traced.cpu_overhead_ratio", "ratio", ratio(median(cpus), base.cpuS))
}
