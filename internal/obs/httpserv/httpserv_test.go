package httpserv

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	rec := obs.New()
	rec.Registry().Counter("memctrl_reads_total").Add(42)
	rec.Registry().Counter(obs.SeriesName("memctrl_tier_refreshes_total", "shift", "2")).Add(7)
	rec.Registry().Histogram("sim_decode_cycles").Observe(30)
	prog := obs.NewProgress()
	prog.SetPhase("active")
	prog.SetWork(5, 100)
	rec.SetProgress(prog)
	flight := obs.NewEventLog(obs.FlightKinds, 64)
	rec.AddEventLog(flight)
	rec.Emit(obs.Event{T: 10, Kind: obs.KindSweepEnd, Cycles: 30})

	healthy := true
	srv := New(Config{
		Registry: rec.Registry(),
		Progress: prog,
		Flight:   flight,
		Health: func() error {
			if !healthy {
				return errors.New("checker violation")
			}
			return nil
		},
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	scrape, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics not valid exposition: %v\n%s", err, body)
	}
	var sawTier bool
	for _, s := range scrape.Samples {
		if s.Name == "memctrl_tier_refreshes_total" && s.Labels["shift"] == "2" && s.Value == 7 {
			sawTier = true
		}
	}
	if !sawTier {
		t.Errorf("per-tier counter missing from scrape:\n%s", body)
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	healthy = false
	code, body = get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "checker violation") {
		t.Errorf("unhealthy /healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var view struct {
		Phase      string  `json:"phase"`
		Done       uint64  `json:"done"`
		Total      uint64  `json:"total"`
		RatePerSec float64 `json:"rate_per_sec"`
		ETASeconds float64 `json:"eta_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if view.Phase != "active" || view.Done != 5 || view.Total != 100 {
		t.Errorf("/progress = %+v", view)
	}

	code, body = get(t, base+"/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight status %d", code)
	}
	evs, err := obs.ReadJSONL(strings.NewReader(body))
	if err != nil || len(evs) != 1 || evs[0].Kind != obs.KindSweepEnd {
		t.Errorf("/flight = %v %q", err, body)
	}

	code, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

func TestServerNilComponents(t *testing.T) {
	srv := New(Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr
	for _, ep := range []string{"/metrics", "/healthz", "/progress", "/flight"} {
		if code, _ := get(t, base+ep); code != http.StatusOK {
			t.Errorf("%s with nil components = %d", ep, code)
		}
	}
}

func TestProgressRateEWMA(t *testing.T) {
	srv := New(Config{})
	now := time.Now()
	if r := srv.observeRate(100, now); r != 0 {
		t.Errorf("first observation rate = %v, want 0 (no interval yet)", r)
	}
	r1 := srv.observeRate(200, now.Add(time.Second)) // 100/s sample
	if r1 != 100 {
		t.Errorf("seeded rate = %v, want 100", r1)
	}
	r2 := srv.observeRate(220, now.Add(2*time.Second)) // 20/s sample
	want := ewmaAlpha*20 + (1-ewmaAlpha)*100
	if diff := r2 - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("EWMA rate = %v, want %v", r2, want)
	}
	if r := srv.observeRate(10, now.Add(3*time.Second)); r != 0 {
		t.Errorf("counter-reset rate = %v, want re-seeded 0", r)
	}
}

func TestProgressETA(t *testing.T) {
	prog := obs.NewProgress()
	prog.SetPhase("fig7")
	prog.SetWork(50, 100)
	srv := New(Config{Progress: prog})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr
	get(t, base+"/progress") // seed the rate estimator
	time.Sleep(20 * time.Millisecond)
	prog.AddDone(10)
	_, body := get(t, base+"/progress")
	var view struct {
		RatePerSec float64 `json:"rate_per_sec"`
		ETASeconds float64 `json:"eta_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.RatePerSec <= 0 {
		t.Errorf("rate = %v, want > 0 after progress between scrapes", view.RatePerSec)
	}
	if view.ETASeconds <= 0 {
		t.Errorf("eta = %v, want > 0 with work remaining", view.ETASeconds)
	}
	if testing.Verbose() {
		fmt.Println(body)
	}
}
