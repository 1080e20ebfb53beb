package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Section is one titled table of an exhibit's output. paperbench prints
// it as a "=== Title ===" line followed by Body.
type Section struct {
	Title string
	Body  string
}

// Exhibit is one entry of the evaluation.
type Exhibit struct {
	// Name selects the exhibit (paperbench -experiment).
	Name string
	// Desc is the one-line description paperbench -list prints.
	Desc string
	// Run regenerates the exhibit. Every simulation it runs uses s's
	// options and goes through s, so a job an earlier exhibit ran on s
	// is read back, not run again. trials is the integrity Monte Carlo's
	// line count; the other exhibits ignore it.
	Run func(s *Suite, trials int) ([]Section, error)
}

// titled returns rendered as an exhibit's single section, or err.
func titled(title, rendered string, err error) ([]Section, error) {
	if err != nil {
		return nil, err
	}
	return []Section{{title, rendered}}, nil
}

// Exhibits returns every exhibit of the evaluation in run order: the
// paper's tables and figures, then the reproduction's extensions.
func Exhibits() []Exhibit {
	return []Exhibit{
		{"table1", "Table I: failure probability vs ECC strength (analytic)", func(*Suite, int) ([]Section, error) {
			res, err := TableI()
			return titled("Table I: line and system failure probability (BER 10^-4.5, 64B lines, 1GB)",
				res.Rendered+fmt.Sprintf("Required strength incl. soft-error margin: ECC-%d\n", res.RequiredStrength), err)
		}},
		{"table2", "Table II: baseline system configuration", func(*Suite, int) ([]Section, error) {
			return titled("Table II: baseline system configuration", TableII(), nil)
		}},
		{"table3", "Table III: benchmark characterization (simulated)", func(s *Suite, _ int) ([]Section, error) {
			res, err := TableIII(s)
			return titled(fmt.Sprintf("Table III: benchmark characterization (measured, scale 1/%d)", s.opts.Scale), res.Rendered, err)
		}},
		{"table4", "Table IV: memory power parameters", func(*Suite, int) ([]Section, error) {
			return titled("Table IV: memory power parameters", TableIV(), nil)
		}},
		{"fig2", "retention-time distribution (analytic)", func(*Suite, int) ([]Section, error) {
			res := Fig2()
			return titled(fmt.Sprintf("Fig 2: retention-time distribution (log-log slope %.2f)", res.Slope), res.Rendered, nil)
		}},
		{"fig3", "decode-latency performance impact by class", func(s *Suite, _ int) ([]Section, error) {
			res, err := Fig3(s)
			return titled("Fig 3: performance impact of decode latency (normalized IPC)", res.Rendered, err)
		}},
		{"fig7", "SECDED / ECC-6 / MECC normalized IPC (headline)", func(s *Suite, _ int) ([]Section, error) {
			res, err := Fig7(s)
			return titled("Fig 7: SECDED / ECC-6 / MECC normalized IPC per benchmark", res.Rendered, err)
		}},
		{"fig8", "idle-mode refresh and total power (analytic)", func(*Suite, int) ([]Section, error) {
			res, err := Fig8()
			return titled("Fig 8: idle-mode refresh and total power (normalized to baseline)",
				res.Rendered+fmt.Sprintf("Idle power reduction with MECC: %.1f%%\n", res.Reduction*100), err)
		}},
		{"fig9", "active-mode power / energy / EDP", func(s *Suite, _ int) ([]Section, error) {
			res, err := Fig9(s)
			return titled("Fig 9: active-mode power / energy / EDP (geomean, normalized)", res.Rendered, err)
		}},
		{"fig10", "total energy at 95% idle", func(s *Suite, _ int) ([]Section, error) {
			res, err := Fig10(s)
			return titled("Fig 10: total memory energy at 95% idle (normalized to baseline total)",
				res.Rendered+fmt.Sprintf("Total memory energy saving with MECC: %.1f%%\n", res.Saving*100), err)
		}},
		{"fig11", "MDT-tracked memory per benchmark", func(s *Suite, _ int) ([]Section, error) {
			res, err := Fig11(s)
			return titled("Fig 11: memory tracked by 1K-entry MDT (full footprints)", res.Rendered, err)
		}},
		{"fig12", "ECC-6 decode-latency sensitivity sweep", func(s *Suite, _ int) ([]Section, error) {
			res, err := Fig12(s)
			return titled("Fig 12: sensitivity to ECC-6 decode latency (normalized IPC)", res.Rendered, err)
		}},
		{"fig13", "MECC warm-up transient vs slice length", func(s *Suite, _ int) ([]Section, error) {
			res, err := Fig13(s)
			return titled("Fig 13: MECC warm-up transient vs slice length", res.Rendered, err)
		}},
		{"fig14", "SMD downgrade-disabled time", func(s *Suite, _ int) ([]Section, error) {
			res, err := Fig14(s)
			return titled("Fig 14: SMD downgrade-disabled execution time (MPKC threshold 2)",
				res.Rendered+fmt.Sprintf("Benchmarks never enabling ECC-Downgrade: %d of 28\n", res.NeverEnabled), err)
		}},
		{"ablations", "MDT/SMD/refresh/mapping/REFpb/weak-code/scrub/scheduler/prefetch/temperature", ablations},
		{"day", "Fig 1 usage pattern through the phase simulator", func(s *Suite, _ int) ([]Section, error) {
			res, err := DayInTheLife(s.opts)
			return titled("Day-in-the-life: Fig 1 usage pattern through the phase simulator", res.Rendered, err)
		}},
		{"relatedwork", "RAIDR/Flikker/SECRET vs MECC under VRT; Hi-ECC granularity", func(s *Suite, _ int) ([]Section, error) {
			res, err := RelatedWork(s.opts.Seed)
			if err != nil {
				return nil, err
			}
			return []Section{
				{"Related work (Section VII): refresh schemes under VRT", res.Rendered},
				{"Related work (Section VII-C): Hi-ECC granularity trade-off", HiECC().Rendered},
			}, nil
		}},
		{"modes", "SR/PASR/DPD/MECC power vs capacity", func(*Suite, int) ([]Section, error) {
			res, err := RefreshModes()
			return titled("Refresh modes (Section II-A): power vs usable capacity", res.Rendered, err)
		}},
		{"daemon", "Section VI-B idle-daemon study (SMD on/off)", func(s *Suite, _ int) ([]Section, error) {
			res, err := Daemon(s)
			return titled("Daemon study (Section VI-B): SMD keeps slow refresh through background activity", res.Rendered, err)
		}},
		{"model", "simulator vs first-order CPI theory", func(s *Suite, _ int) ([]Section, error) {
			res, err := ModelValidation(s)
			return titled("Model validation: simulator vs first-order CPI theory (ECC-6)", res.Rendered, err)
		}},
		{"capacity", "idle power and savings vs memory size", func(*Suite, int) ([]Section, error) {
			res, err := CapacityScaling()
			return titled("Capacity scaling: idle power and MECC savings vs memory size", res.Rendered, err)
		}},
		{"integrity", "end-to-end fault-injection Monte Carlo", func(s *Suite, trials int) ([]Section, error) {
			res, err := Integrity(trials, 0, s.opts.Seed)
			return titled("Integrity: end-to-end fault injection through the real codecs", res.Rendered, err)
		}},
	}
}

// ablations runs the ten ablation tables that extend the paper's own
// sensitivity study.
func ablations(s *Suite, _ int) ([]Section, error) {
	mdt, err := AblationMDT(s)
	if err != nil {
		return nil, err
	}
	smd, err := AblationSMDThreshold(s)
	if err != nil {
		return nil, err
	}
	ref, err := AblationRefreshSweep()
	if err != nil {
		return nil, err
	}
	mapping, err := AblationMapping(s)
	if err != nil {
		return nil, err
	}
	policy, err := AblationRefreshPolicy(s)
	if err != nil {
		return nil, err
	}
	weak, err := AblationWeakCode(2000, s.opts.Seed)
	if err != nil {
		return nil, err
	}
	scrub, err := ScrubTable()
	if err != nil {
		return nil, err
	}
	sched, err := AblationScheduler(s)
	if err != nil {
		return nil, err
	}
	pf, err := AblationPrefetch(s)
	if err != nil {
		return nil, err
	}
	temp, err := AblationTemperature()
	if err != nil {
		return nil, err
	}
	return []Section{
		{"Ablation: MDT region-count sweep", mdt.Rendered},
		{"Ablation: SMD threshold sweep", smd.Rendered},
		{"Ablation: refresh period vs required ECC strength", ref.Rendered},
		{"Ablation: address-interleaving policy", mapping.Rendered},
		{"Ablation: all-bank REF vs per-bank REFpb", policy.Rendered},
		{"Ablation: weak-code choice under active-mode soft errors", weak.Rendered},
		{"Ablation: scrub interval (idle periods between corrections)", scrub},
		{"Ablation: memory-scheduler policy", sched.Rendered},
		{"Ablation: next-line prefetcher (under MECC)", pf.Rendered},
		{"Ablation: junction temperature vs required ECC at 1s refresh", temp.Rendered},
	}, nil
}

// Select returns the exhibits that list, a comma-separated list of names,
// selects, in run order; "all" selects every exhibit. It rejects an
// unknown name, and a trial count below 1 when integrity is selected,
// with an error wrapping ErrBadOptions, so a bad request fails before
// any exhibit runs.
func Select(list string, trials int) ([]Exhibit, error) {
	exhibits := Exhibits()
	known := map[string]bool{"all": true}
	for _, e := range exhibits {
		known[e.Name] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			unknown = append(unknown, strconv.Quote(name))
		}
		want[name] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("%w: unknown experiment %s", ErrBadOptions, strings.Join(unknown, ", "))
	}
	var out []Exhibit
	for _, e := range exhibits {
		if want["all"] || want[e.Name] {
			out = append(out, e)
		}
	}
	if want["all"] || want["integrity"] {
		if err := checkTrials(trials); err != nil {
			return nil, err
		}
	}
	return out, nil
}
