package bch

import "repro/internal/obs"

// Package-level telemetry counters. They are nil by default — a nil
// *obs.Counter's Add is a no-op behind one branch — so the encode and
// decode hot paths keep their zero-allocation guarantee with telemetry
// disabled (guarded by TestDecodeZeroAllocs and
// TestDetachedObserverZeroAllocs). Counters are atomic, so codecs used
// from several goroutines at once, as the integrity sweep's pool
// workers use them, may share them.
var (
	obsEncodes       *obs.Counter
	obsDecodes       *obs.Counter
	obsCorrectedBits *obs.Counter
	obsUncorrectable *obs.Counter
)

// SetObserver wires the package's codec counters to a recorder (nil
// detaches). Affects all Codes; call once at harness setup, not
// concurrently with encode/decode traffic.
//
//meccvet:quiescent
func SetObserver(r *obs.Recorder) {
	obsEncodes = r.Counter("bch_encodes_total")
	obsDecodes = r.Counter("bch_decodes_total")
	obsCorrectedBits = r.Counter("bch_corrected_bits_total")
	obsUncorrectable = r.Counter("bch_uncorrectable_total")
}

// noteDecode accounts one Decode call.
func noteDecode(res Result) {
	if obsDecodes == nil {
		return
	}
	obsDecodes.Inc()
	if res.Uncorrectable {
		obsUncorrectable.Inc()
	} else if res.CorrectedBits > 0 {
		obsCorrectedBits.Add(uint64(res.CorrectedBits))
	}
}
