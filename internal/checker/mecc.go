package checker

// MECCView is the slice of core.Controller state the tracker may consult
// at sweep time. The interface lives here so core can import checker
// without a cycle.
type MECCView interface {
	// MDTMarked reports whether the MDT currently marks the region.
	MDTMarked(region uint64) bool
}

// MECC shadows the morphable-ECC state machine with its own per-line
// mode bitmap and dirty-region set, validating on every hook that the
// controller only takes legal transitions:
//
//   - strong→weak (ECC-Downgrade) only on an active-mode access while
//     downgrades are enabled, and only from strong mode;
//   - weak→strong only via the idle-entry upgrade sweep, which must
//     convert exactly the lines the shadow bitmap knows are weak;
//   - the MDT must mark every region holding a downgraded line when the
//     sweep starts (superset check);
//   - SMD may enable downgrades only from a sampled MPKC above the
//     threshold, and wake-up must leave downgrades disabled while SMD is
//     active.
//
// All methods are nil-safe: a nil tracker is a no-op.
type MECC struct {
	suite *Suite

	totalLines     uint64
	linesPerRegion uint64
	mdtEntries     uint64
	mdtEnabled     bool
	smdEnabled     bool
	threshold      float64

	view        MECCView
	active      bool
	downgradeOn bool

	weak      *bitset // set bit = line in weak (SECDED) mode
	weakCount uint64
	dirty     map[uint64]struct{} // regions downgraded since last sweep
}

// NewMECC builds a tracker for one morphable controller. linesPerRegion
// and mdtEntries mirror the controller's MDT geometry; they are ignored
// when mdtEnabled is false.
func NewMECC(s *Suite, totalLines uint64, mdtEnabled bool, mdtEntries int, smdEnabled bool, thresholdMPKC float64) *MECC {
	if totalLines == 0 {
		totalLines = 1
	}
	t := &MECC{
		suite:      s,
		totalLines: totalLines,
		mdtEnabled: mdtEnabled,
		smdEnabled: smdEnabled,
		threshold:  thresholdMPKC,
		weak:       newBitset(totalLines),
		dirty:      make(map[uint64]struct{}),
	}
	if mdtEnabled && mdtEntries > 0 {
		t.mdtEntries = uint64(mdtEntries)
		t.linesPerRegion = totalLines / t.mdtEntries
		if t.linesPerRegion == 0 {
			t.linesPerRegion = 1
		}
	}
	return t
}

// regionOf mirrors the controller's region mapping independently.
func (t *MECC) regionOf(addr uint64) uint64 {
	r := addr / t.linesPerRegion
	if r >= t.mdtEntries {
		r = t.mdtEntries - 1
	}
	return r
}

// Attach binds the tracker to a live controller view and synchronizes
// with its current phase. The shadow bitmap starts all-strong, matching
// the controller's boot state. Nil-safe.
func (t *MECC) Attach(view MECCView, active, downgradeOn bool) {
	if t == nil {
		return
	}
	t.view = view
	t.active = active
	t.downgradeOn = downgradeOn
}

// noteDowngrade applies one observed strong→weak transition to the
// shadow state, validating legality.
func (t *MECC) noteDowngrade(addr, now uint64, op string, wasStrong bool) {
	if !t.active {
		t.suite.Report("ecc-transition", now, "%s downgraded line %d while idle", op, addr)
	}
	if !t.downgradeOn {
		t.suite.Report("ecc-transition", now, "%s downgraded line %d while ECC-Downgrade is disabled", op, addr)
	}
	if !wasStrong {
		t.suite.Report("ecc-transition", now, "%s downgraded line %d that was already weak", op, addr)
	}
	addr %= t.totalLines
	if !t.weak.get(addr) {
		t.weak.set(addr)
		t.weakCount++
	}
	if t.mdtEnabled {
		t.dirty[t.regionOf(addr)] = struct{}{}
	}
}

// OnRead observes one active-mode read: wasStrong is the line's mode
// before the access, downgraded whether the controller converted it.
// Nil-safe.
func (t *MECC) OnRead(addr, now uint64, wasStrong, downgraded bool) {
	if t == nil {
		return
	}
	if !t.active {
		t.suite.Report("ecc-transition", now, "read of line %d while idle", addr)
	}
	t.checkShadowMode(addr, now, wasStrong)
	if downgraded {
		t.noteDowngrade(addr, now, "read", wasStrong)
	}
}

// OnWrite observes one active-mode writeback. Nil-safe.
func (t *MECC) OnWrite(addr, now uint64, wasStrong, downgraded bool) {
	if t == nil {
		return
	}
	if !t.active {
		t.suite.Report("ecc-transition", now, "write of line %d while idle", addr)
	}
	t.checkShadowMode(addr, now, wasStrong)
	if downgraded {
		t.noteDowngrade(addr, now, "write", wasStrong)
	}
}

// checkShadowMode compares the controller's view of a line's mode with
// the shadow bitmap.
func (t *MECC) checkShadowMode(addr, now uint64, wasStrong bool) {
	if shadowWeak := t.weak.get(addr % t.totalLines); shadowWeak == wasStrong {
		mode := "strong"
		if shadowWeak {
			mode = "weak"
		}
		t.suite.Report("ecc-transition", now,
			"line %d: controller reports strong=%v, shadow says %s", addr, wasStrong, mode)
	}
}

// OnSMDEnable observes ECC-Downgrade turning on. sampled is true when the
// decision came from an SMD window evaluation carrying an MPKC sample,
// false for the unconditional enable at wake-up without SMD. Nil-safe.
func (t *MECC) OnSMDEnable(now uint64, mpkc float64, sampled bool) {
	if t == nil {
		return
	}
	if t.smdEnabled {
		if !sampled {
			t.suite.Report("smd-gating", now, "downgrade enabled without an MPKC sample while SMD is active")
		} else if mpkc <= t.threshold {
			t.suite.Report("smd-gating", now, "downgrade enabled at MPKC %.3f <= threshold %.3f", mpkc, t.threshold)
		}
	}
	t.downgradeOn = true
}

// OnSweepStart observes the start of an idle-entry upgrade sweep, while
// the controller's MDT still holds its pre-reset contents: every dirty
// region in the shadow state must be marked. Nil-safe.
func (t *MECC) OnSweepStart(now uint64) {
	if t == nil {
		return
	}
	if !t.active {
		t.suite.Report("ecc-transition", now, "upgrade sweep started while already idle")
	}
	if t.mdtEnabled && t.view != nil {
		for r := range t.dirty {
			if !t.view.MDTMarked(r) {
				t.suite.Report("mdt-superset", now,
					"region %d holds downgraded lines but is not marked in the MDT", r)
			}
		}
	}
}

// OnSweepEnd observes the end of the sweep: the controller reports how
// many lines it upgraded, which must equal the shadow count of weak
// lines (every weak line lives in a dirty — hence marked — region, so
// the sweep must restore all of them). The tracker then transitions to
// idle. Nil-safe.
func (t *MECC) OnSweepEnd(now, linesUpgraded uint64) {
	if t == nil {
		return
	}
	if linesUpgraded != t.weakCount {
		t.suite.Report("ecc-transition", now,
			"upgrade sweep converted %d lines, shadow state expected %d", linesUpgraded, t.weakCount)
	}
	t.weak.clearAll()
	t.weakCount = 0
	for r := range t.dirty {
		delete(t.dirty, r)
	}
	t.active = false
	t.downgradeOn = false
}

// OnPhase observes a wake-up (active=true) or idle entry. With SMD
// enabled, wake-up must leave downgrades disabled until the traffic
// monitor votes. Nil-safe.
func (t *MECC) OnPhase(now uint64, active, downgradeOn bool) {
	if t == nil {
		return
	}
	if active && downgradeOn && t.smdEnabled {
		t.suite.Report("smd-gating", now, "wake-up enabled downgrades immediately despite SMD")
	}
	t.active = active
	t.downgradeOn = downgradeOn
}

// WeakLines returns the shadow count of weak lines (for tests). Nil-safe.
func (t *MECC) WeakLines() uint64 {
	if t == nil {
		return 0
	}
	return t.weakCount
}
