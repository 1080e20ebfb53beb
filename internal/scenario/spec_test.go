package scenario

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

func validSpecJSON() string {
	return `{
	  "name": "t",
	  "phases": [
	    {"type": "active", "workload": "gcc", "instructions": 1000},
	    {"type": "idle", "duration_ms": 1}
	  ],
	  "invariants": [{"kind": "checker_clean"}]
	}`
}

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(validSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t" || len(s.Phases) != 2 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, mutate, want string
	}{
		{"unknown-field", `"name": "t",`, ""}, // handled below
		{"idle-while-idle", "", "bad phase ordering"},
		{"unknown-metric", "", "unknown metric"},
		{"negative-duration", "", "negative duration"},
		{"huge-duration", "", "overflows time.Duration"},
		{"unknown-workload", "", "unknown benchmark"},
	}
	_ = cases
	reject := func(t *testing.T, body, want string) {
		t.Helper()
		_, err := Parse([]byte(body))
		if !errors.Is(err, ErrBadSpec) {
			t.Fatalf("err = %v, want ErrBadSpec", err)
		}
		if want != "" && !strings.Contains(err.Error(), want) {
			t.Errorf("err %q does not mention %q", err, want)
		}
	}
	t.Run("unknown-field", func(t *testing.T) {
		reject(t, strings.Replace(validSpecJSON(), `"name": "t",`, `"name": "t", "tepm_c": 55,`, 1), "tepm_c")
	})
	t.Run("idle-while-idle", func(t *testing.T) {
		reject(t, `{"name":"t","phases":[
		  {"type":"active","workload":"gcc","instructions":1000},
		  {"type":"idle","duration_ms":1},
		  {"type":"idle","duration_ms":1}],
		  "invariants":[{"kind":"checker_clean"}]}`, "bad phase ordering")
	})
	t.Run("negative-duration", func(t *testing.T) {
		reject(t, `{"name":"t","phases":[
		  {"type":"active","workload":"gcc","instructions":1000},
		  {"type":"idle","duration_ms":-5}],
		  "invariants":[{"kind":"checker_clean"}]}`, "negative duration")
	})
	t.Run("huge-duration", func(t *testing.T) {
		reject(t, `{"name":"t","phases":[
		  {"type":"active","workload":"gcc","instructions":1000},
		  {"type":"idle","duration_ms":1e300}],
		  "invariants":[{"kind":"checker_clean"}]}`, "overflows time.Duration")
		// The first value that no longer fits: 2^63 ns.
		reject(t, `{"name":"t","phases":[
		  {"type":"active","workload":"gcc","instructions":1000},
		  {"type":"idle","duration_ms":9223372036854.775808}],
		  "invariants":[{"kind":"checker_clean"}]}`, "overflows time.Duration")
	})
	t.Run("unknown-metric", func(t *testing.T) {
		reject(t, `{"name":"t","phases":[
		  {"type":"active","workload":"gcc","instructions":1000}],
		  "invariants":[{"kind":"metric_max","metric":"no.such.metric","value":1}]}`, "unknown metric")
	})
	t.Run("mecc-metric-on-baseline", func(t *testing.T) {
		reject(t, `{"name":"t","scheme":"baseline","phases":[
		  {"type":"active","workload":"gcc","instructions":1000}],
		  "invariants":[{"kind":"metric_min","metric":"mecc.sweeps","value":1}]}`, "requires scheme mecc")
	})
	t.Run("daemon-while-awake", func(t *testing.T) {
		reject(t, `{"name":"t","phases":[
		  {"type":"daemon","workload":"daemon","instructions":1000,"duration_ms":1}],
		  "invariants":[{"kind":"checker_clean"}]}`, "bad phase ordering")
	})
	t.Run("bad-temp", func(t *testing.T) {
		reject(t, `{"name":"t","temp_c":300,"phases":[
		  {"type":"active","workload":"gcc","instructions":1000}],
		  "invariants":[{"kind":"checker_clean"}]}`, "temp")
	})
	t.Run("bad-expect-violation", func(t *testing.T) {
		reject(t, `{"name":"t","phases":[
		  {"type":"active","workload":"gcc","instructions":1000}],
		  "invariants":[{"kind":"expect_violation","invariant":"no-such-invariant"}]}`, "unknown checker invariant")
	})
}

func TestValidateSetRejectsDuplicates(t *testing.T) {
	s, err := Parse([]byte(validSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	err = ValidateSet([]Spec{s, s})
	if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate-name ErrBadSpec", err)
	}
}

func TestMetricKeysCoverResultAndDerived(t *testing.T) {
	keys := MetricKeys()
	for _, want := range []string{
		"ipc", "mpki", "dram.n_self_refresh_pulses", "ctrl.refreshes_dropped",
		"mecc.sweeps", "mecc.smd_enables", "energy.self_refresh_j",
		MetricTotalEnergyJ, MetricTotalRefreshPulses, MetricIdleTimeSec,
		MetricUncorrectableProb,
	} {
		if !keys[want] {
			t.Errorf("metric key %q missing", want)
		}
	}
	if keys["benchmark"] || keys["scheme"] {
		t.Error("identity fields leaked into the metric key set")
	}
}

func TestFlattenSkipsNilMECC(t *testing.T) {
	flat := Flatten(sim.Result{IPC: 1.5})
	if _, ok := flat["mecc.sweeps"]; ok {
		t.Error("nil MECC stats produced mecc.* metrics")
	}
	if flat["ipc"] != 1.5 {
		t.Errorf("ipc = %g, want 1.5", flat["ipc"])
	}
}

func TestUncorrectableProbRegimes(t *testing.T) {
	// A 64 ms-equivalent exposure at nominal temperature is safe.
	safe := uncorrectableProb([]idleEpisode{{dur: 10_000_000, tempC: 45, divider: 0}}, sim.SchemeMECC)
	if safe > 1e-12 {
		t.Errorf("nominal 64 ms exposure: prob = %g, want ~0", safe)
	}
	// A full 1 s divided period at 85 degC is catastrophic.
	hot := uncorrectableProb([]idleEpisode{{dur: 2_000_000_000, tempC: 85, divider: 4}}, sim.SchemeMECC)
	if hot < 0.9 {
		t.Errorf("hot divided idle: prob = %g, want ~1", hot)
	}
	// No episodes: exactly zero (not -0).
	if got := uncorrectableProb(nil, sim.SchemeMECC); got != 0 {
		t.Errorf("no episodes: prob = %g, want 0", got)
	}
	// Weaker codes fail earlier: SECDED's probability at a mildly hot
	// divided idle must exceed MECC's.
	ep := []idleEpisode{{dur: 1_200_000_000, tempC: 55, divider: 4}}
	if m, s := uncorrectableProb(ep, sim.SchemeMECC), uncorrectableProb(ep, sim.SchemeSECDED); s <= m {
		t.Errorf("SECDED prob %g <= MECC prob %g", s, m)
	}
}
