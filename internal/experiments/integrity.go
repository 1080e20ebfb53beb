package experiments

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/ecc"
	"repro/internal/line"
	"repro/internal/retention"
	"repro/internal/stats"
)

// IntegrityResult carries the end-to-end data-integrity Monte Carlo: the
// experiment that validates, with the real BCH/SECDED codecs rather than
// the analytic model, that MECC's idle-mode protection holds at the slow
// refresh rate.
type IntegrityResult struct {
	// Trials is the number of lines exercised per mode.
	Trials int
	// StrongCorrected counts idle-mode (ECC-6, 1 s refresh) lines whose
	// retention errors were fully corrected.
	StrongCorrected int
	// StrongDetected counts lines flagged detected-uncorrectable (>6
	// errors: astronomically rare at the paper's BER, common only at
	// elevated stress BER).
	StrongDetected int
	// SilentCorruptions counts decodes that returned wrong data without
	// flagging — MUST be zero for correctable error counts.
	SilentCorruptions int
	// WeakCorrected counts active-mode (SECDED, 64 ms refresh) lines
	// corrected.
	WeakCorrected int
	// ModeBitFlips counts trials where replicated ECC-mode bits were
	// hit; ModeResolved counts those still resolved correctly.
	ModeBitFlips, ModeResolved int
	// InjectedErrors is the total number of injected bit errors.
	InjectedErrors int
	Rendered       string
}

// checkTrials rejects an integrity trial count below 1.
func checkTrials(trials int) error {
	if trials < 1 {
		return fmt.Errorf("%w: integrity trials=%d", ErrBadOptions, trials)
	}
	return nil
}

// Integrity runs the Monte Carlo: encode random lines in the morphable
// Fig. 6 layout, inject uniform retention faults across all 576 stored
// bits (512 data + 4 mode + 60 code) at the given BER, decode, and check
// the recovered data bit-for-bit. stressBER of 0 uses the paper's
// idle-mode BER of 10^-4.5 (where multi-error lines are rare); pass a
// higher value (e.g. 3e-3) to exercise the 5-6-error correction paths
// heavily. A stressBER that is NaN, negative or above 1 is not a
// probability and is rejected with ErrBadOptions.
func Integrity(trials int, stressBER float64, seed int64) (IntegrityResult, error) {
	return integrity(batch.Default(), trials, stressBER, seed)
}

// integrityChunk is the trial count of each of the sweep's two trial
// buffers, 295 KB each: small enough that drawing a chunk ahead does
// not raise peak memory, large enough that a fork-join per chunk is
// noise beside its ~2,048 × 4 codec calls.
const integrityChunk = 2048

// integrityBlock is the number of trials a shard claims from the sweep
// cursor at a time: ~64 codec round trips per atomic add, and small
// enough that shard 0 still finds work when it finishes drawing.
const integrityBlock = 64

// integrityTrial is one drawn trial: the data line, the strong-mode
// stored data with its injected errors, the injected spare-bit mask,
// and the weak-mode flip position (-1 for none).
type integrityTrial struct {
	data, bad line.Line
	spareMask uint64
	weakFlip  int
}

// integrityDraws holds the Monte Carlo's three random streams: rng for
// the data and trial 0's forced weak flip, inj for idle-mode faults and
// weakInj for active-mode ones.
type integrityDraws struct {
	rng          *rand.Rand
	inj, weakInj *retention.Injector
}

// draw fills trials, the chunk that starts at trial index base. Each
// trial takes its data, then its strong flips, then its weak flips,
// then (trial 0 only) the forced weak flip, so every stream is consumed
// in trial order whatever the chunking. flips is scratch; draw returns
// the strong-mode errors injected and the scratch for reuse.
func (d integrityDraws) draw(base int, trials []integrityTrial, flips []int) (int, []int) {
	injected := 0
	for i := range trials {
		tr := &trials[i]
		for w := range tr.data {
			tr.data[w] = d.rng.Uint64()
		}

		// Idle mode: strong encoding, slow-refresh BER over all stored
		// bits. Spare layout: bits 0..3 mode, 4..63 code.
		tr.bad, tr.spareMask = tr.data, 0
		flips = d.inj.FlipPositionsAppend(line.Bits+ecc.SpareBits, flips[:0])
		injected += len(flips)
		for _, pos := range flips {
			if pos < line.Bits {
				tr.bad = tr.bad.FlipBit(pos)
			} else {
				tr.spareMask ^= uint64(1) << (pos - line.Bits)
			}
		}

		// Active mode: weak encoding at the JEDEC-rate BER (1e-9): the
		// occasional single error must be corrected by SECDED. Trial 0
		// always takes one, so the weak path is exercised at least once.
		flips = d.weakInj.FlipPositionsAppend(line.Bits+ecc.SpareBits, flips[:0])
		tr.weakFlip = -1
		switch {
		case len(flips) > 0:
			tr.weakFlip = flips[0]
		case base+i == 0:
			tr.weakFlip = d.rng.Intn(line.Bits)
		}
	}
	return injected, flips
}

// sweep encodes, corrupts and decodes each trial in both modes and adds
// the outcomes to r's counts.
func (r *IntegrityResult) sweep(m *ecc.Morphable, trials []integrityTrial) {
	for i := range trials {
		tr := &trials[i]
		fixed, ev := m.Decode(tr.bad, m.Encode(tr.data, ecc.ModeStrong)^tr.spareMask)
		// Flip positions are distinct, so a set mode bit in the mask is
		// a hit replica.
		if tr.spareMask&(1<<ecc.ModeBits-1) != 0 {
			r.ModeBitFlips++
			if ev.Mode == ecc.ModeStrong {
				r.ModeResolved++
			}
		}
		switch {
		case ev.Result.Uncorrectable:
			r.StrongDetected++
		case fixed == tr.data:
			r.StrongCorrected++
		default:
			r.SilentCorruptions++
		}

		wBad, wSpare := tr.data, m.Encode(tr.data, ecc.ModeWeak)
		switch p := tr.weakFlip; {
		case p >= line.Bits:
			wSpare ^= uint64(1) << (p - line.Bits)
		case p >= 0:
			wBad = wBad.FlipBit(p)
		}
		if fixed, ev := m.Decode(wBad, wSpare); !ev.Result.Uncorrectable && fixed == tr.data {
			r.WeakCorrected++
		} else {
			r.SilentCorruptions++
		}
	}
}

// integrityShard is one pool worker's state: its running counts and, on
// shard 0, the drawer's flip scratch. The padding keeps neighbouring
// shards' counters off one cache line.
type integrityShard struct {
	tally IntegrityResult
	flips []int
	_     [64]byte
}

// integrity is Integrity on a given pool. It runs one fork-join per
// chunk of integrityChunk trials over two trial buffers: shard 0 first
// draws the next chunk into the idle buffer, then every shard claims
// blocks of the current chunk from an atomic cursor and sweeps them
// into its own counts, which are summed after the last chunk. The draws
// overlap the codec work. Only shard 0 draws, in trial order, and the
// counts are sums, so the result is bit-identical to a plain per-trial
// loop for any pool width.
func integrity(pool *batch.Pool, trials int, stressBER float64, seed int64) (IntegrityResult, error) {
	if err := checkTrials(trials); err != nil {
		return IntegrityResult{}, err
	}
	if !(stressBER >= 0 && stressBER <= 1) {
		return IntegrityResult{}, fmt.Errorf("%w: stress BER %v outside [0, 1]", ErrBadOptions, stressBER)
	}
	ber := stressBER
	if ber == 0 {
		ber = retention.SlowBitErrorRate
	}
	m, err := ecc.NewDefaultMorphable()
	if err != nil {
		return IntegrityResult{}, err
	}
	d := integrityDraws{
		rng:     rand.New(rand.NewSource(seed)),
		inj:     retention.NewInjector(seed+1, ber),
		weakInj: retention.NewInjector(seed+2, retention.JEDECBitErrorRate),
	}

	// One allocation holds both buffers; the second is empty when one
	// chunk covers every trial.
	size := min(trials, integrityChunk)
	buf := make([]integrityTrial, min(trials, 2*integrityChunk))
	bufs := [2][]integrityTrial{buf[:size], buf[size:]}
	shards := make([]integrityShard, pool.Workers())
	// The flip scratch holds a whole line's worth, so it never grows.
	shards[0].flips = make([]int, 0, line.Bits+ecc.SpareBits)
	var (
		cur, next []integrityTrial // the chunk swept; the chunk shard 0 draws
		nextBase  int              // the trial index of next[0]
		cursor    atomic.Int64     // the first trial of cur not yet claimed
	)
	// Run's spans only decide how many shards start: every shard claims
	// its trials from the cursor, so shard 0's draw does not hold the
	// others up.
	work := func(worker, _, _ int) {
		if worker == 0 && len(next) > 0 {
			var injected int
			injected, shards[worker].flips = d.draw(nextBase, next, shards[worker].flips)
			shards[worker].tally.InjectedErrors += injected
		}
		for {
			lo := int(cursor.Add(integrityBlock)) - integrityBlock
			if lo >= len(cur) {
				return
			}
			shards[worker].tally.sweep(m, cur[lo:min(lo+integrityBlock, len(cur))])
		}
	}

	// The first chunk has nothing to overlap with: draw it here.
	next = bufs[0]
	work(0, 0, 0)
	for base := 0; base < trials; base += integrityChunk {
		k := base / integrityChunk
		cur = bufs[k%2][:min(integrityChunk, trials-base)]
		nextBase = base + integrityChunk
		next = bufs[(k+1)%2][:max(min(integrityChunk, trials-nextBase), 0)]
		cursor.Store(0)
		pool.Run(len(cur), integrityBlock, work)
	}

	out := IntegrityResult{Trials: trials}
	for _, sh := range shards {
		t := sh.tally
		out.InjectedErrors += t.InjectedErrors
		out.StrongCorrected += t.StrongCorrected
		out.StrongDetected += t.StrongDetected
		out.SilentCorruptions += t.SilentCorruptions
		out.WeakCorrected += t.WeakCorrected
		out.ModeBitFlips += t.ModeBitFlips
		out.ModeResolved += t.ModeResolved
	}

	tb := stats.NewTable("Metric", "Count")
	tb.AddRow("Trials per mode", out.Trials)
	tb.AddRow("Injected errors", out.InjectedErrors)
	tb.AddRow("Strong corrected", out.StrongCorrected)
	tb.AddRow("Strong detected-uncorrectable", out.StrongDetected)
	tb.AddRow("Weak corrected", out.WeakCorrected)
	tb.AddRow("Mode-bit flips / resolved", fmt.Sprintf("%d / %d", out.ModeBitFlips, out.ModeResolved))
	tb.AddRow("SILENT CORRUPTIONS", out.SilentCorruptions)
	out.Rendered = tb.String()
	return out, nil
}
