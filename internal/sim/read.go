package sim

// doRead issues a blocking demand read: the in-order core stalls until
// the data burst and its ECC decode complete. decodeCycles is the
// scheme's decode latency in CPU cycles.
func (r *Runner) doRead(lineAddr uint64, decodeCycles int) error {
	r.noteDecode(decodeCycles)
	r.syncDRAM()
	// Prefetch-buffer hit: the line is already on chip; only the decode
	// latency (and a buffer-access cycle) remains.
	if r.prefReady[lineAddr] {
		delete(r.prefReady, lineAddr)
		for i, a := range r.prefFIFO {
			if a == lineAddr {
				r.prefFIFO = append(r.prefFIFO[:i], r.prefFIFO[i+1:]...)
				break
			}
		}
		r.prefHits++
		r.cpu.StallUntil(r.cpu.Now() + 1 + uint64(decodeCycles))
		r.maybePrefetch(lineAddr)
		return nil
	}
	// Adopt an in-flight prefetch of the same line rather than fetching
	// it twice: the prefetch's remaining latency is all we pay.
	if tag, ok := r.prefetchInFlightFor(lineAddr); ok {
		r.dropInflight(tag)
		r.prefHits++
		r.waitTag = tag
		r.waitDone = false
		for !r.waitDone {
			r.driftDRAM()
		}
		dataCPU := r.waitAt * r.ratio()
		r.cpu.StallUntil(dataCPU + uint64(decodeCycles))
		r.maybePrefetch(lineAddr)
		return nil
	}
	// A full read queue frees a slot only when a RD issues. No jump
	// follows a Step that issued one, and the one-request service, which
	// runs on from its RD to the data return, never issues that RD from
	// a full read queue: it refuses a lone read that fills the queue
	// (ReadQueueCap 1), and a larger full queue holds more than one read
	// for the scheduler to pick from. So drifting stops on the cycle
	// per-cycle stepping would enqueue on.
	for !r.ctl.CanEnqueueRead() {
		r.driftDRAM()
	}
	r.nextTag++
	r.waitTag = r.nextTag
	r.waitDone = false
	if err := r.ctl.EnqueueRead(lineAddr, r.waitTag); err != nil {
		// invariant: space was ensured.
		panic(err)
	}
	for !r.waitDone {
		r.driftDRAM()
	}
	dataCPU := r.waitAt * r.ratio()
	r.cpu.StallUntil(dataCPU + uint64(decodeCycles))
	r.maybePrefetch(lineAddr)
	return nil
}
