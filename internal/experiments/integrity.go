package experiments

import (
	"fmt"
	"math/rand"

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

// Integrity runs the Monte Carlo: encode random lines in the morphable
// Fig. 6 layout, inject uniform retention faults across all 576 stored
// bits (512 data + 4 mode + 60 code) at the given BER, decode, and check
// the recovered data bit-for-bit. stressBER of 0 uses the paper's
// idle-mode BER of 10^-4.5 (where multi-error lines are rare); pass a
// higher value (e.g. 3e-3) to exercise the 5-6-error correction paths
// heavily. A stressBER that is NaN, negative or above 1 is not a
// probability and is rejected with ErrBadOptions.
func Integrity(trials int, stressBER float64, seed int64) (IntegrityResult, error) {
	if trials <= 0 {
		return IntegrityResult{}, fmt.Errorf("%w: trials=%d", ErrBadOptions, trials)
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
	rng := rand.New(rand.NewSource(seed))
	inj := retention.NewInjector(seed+1, ber)
	weakInj := retention.NewInjector(seed+2, retention.JEDECBitErrorRate)

	out := IntegrityResult{Trials: trials}

	// The Monte Carlo runs in three phases per chunk so the decode work —
	// by far the dominant cost — can go through the batched worker-pool
	// codec paths: (A) draw all random state sequentially, preserving the
	// exact per-stream draw order of the original trial loop (data, then
	// strong flips, then weak flips, then the forced first-trial flip);
	// (B) batch-encode and batch-decode both modes; (C) tally in trial
	// order. Results are bit-identical to the sequential loop.
	const chunkTrials = 4096
	size := trials
	if size > chunkTrials {
		size = chunkTrials
	}
	var (
		datas   = make([]line.Line, size)
		bads    = make([]line.Line, size)
		spares  = make([]uint64, size)
		evs     = make([]ecc.DecodeEvent, size)
		wBads   = make([]line.Line, size)
		wSpares = make([]uint64, size)
		wEvs    = make([]ecc.DecodeEvent, size)
		// Per-trial injected masks: the spare mask is XORed onto the
		// encoded spare once it exists.
		spareMasks  = make([]uint64, size)
		wSpareMasks = make([]uint64, size)
		modeHits    = make([]bool, size)
		flipBuf     []int
	)
	for base := 0; base < trials; base += chunkTrials {
		n := min(chunkTrials, trials-base)

		// Phase A: sequential random draws, original order.
		for i := 0; i < n; i++ {
			var data line.Line
			for w := range data {
				data[w] = rng.Uint64()
			}
			datas[i] = data

			// Idle mode: strong encoding, slow-refresh BER over all
			// stored bits. Spare layout: bits 0..3 mode, 4..63 code.
			bad, spareMask := data, uint64(0)
			nErr := 0
			modeHit := false
			flipBuf = inj.FlipPositionsAppend(line.Bits+ecc.SpareBits, flipBuf[:0])
			for _, pos := range flipBuf {
				nErr++
				if pos < line.Bits {
					bad = bad.FlipBit(pos)
				} else {
					sp := pos - line.Bits
					if sp < ecc.ModeBits {
						modeHit = true
					}
					spareMask ^= uint64(1) << sp
				}
			}
			out.InjectedErrors += nErr
			bads[i], spareMasks[i], modeHits[i] = bad, spareMask, modeHit

			// Active mode: weak encoding at the JEDEC-rate BER (1e-9):
			// the occasional single error must be corrected by SECDED.
			wBad, wSpareMask := data, uint64(0)
			flipBuf = weakInj.FlipPositionsAppend(line.Bits+ecc.SpareBits, flipBuf[:0])
			flips := flipBuf
			if len(flips) == 0 && base+i == 0 {
				// Force one single-bit event so the weak path is always
				// exercised at least once.
				flips = append(flips, rng.Intn(line.Bits))
			}
			if len(flips) > 1 {
				flips = flips[:1]
			}
			for _, pos := range flips {
				if pos < line.Bits {
					wBad = wBad.FlipBit(pos)
				} else {
					wSpareMask ^= uint64(1) << (pos - line.Bits)
				}
			}
			wBads[i], wSpareMasks[i] = wBad, wSpareMask
		}

		// Phase B: batched encode and decode, both modes.
		m.EncodeBatch(datas[:n], ecc.ModeStrong, spares[:n])
		for i := 0; i < n; i++ {
			spares[i] ^= spareMasks[i]
		}
		m.DecodeBatch(bads[:n], spares[:n], bads[:n], evs[:n])
		m.EncodeBatch(datas[:n], ecc.ModeWeak, wSpares[:n])
		for i := 0; i < n; i++ {
			wSpares[i] ^= wSpareMasks[i]
		}
		m.DecodeBatch(wBads[:n], wSpares[:n], wBads[:n], wEvs[:n])

		// Phase C: tally in trial order.
		for i := 0; i < n; i++ {
			if modeHits[i] {
				out.ModeBitFlips++
				if evs[i].Mode == ecc.ModeStrong {
					out.ModeResolved++
				}
			}
			switch {
			case evs[i].Result.Uncorrectable:
				out.StrongDetected++
			case bads[i] == datas[i]:
				out.StrongCorrected++
			default:
				out.SilentCorruptions++
			}
			if !wEvs[i].Result.Uncorrectable && wBads[i] == datas[i] {
				out.WeakCorrected++
			} else {
				out.SilentCorruptions++
			}
		}
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
