package scenario

import (
	"sync"

	"repro/internal/trace"
	"repro/internal/workload"
)

// The runs of one Run (the primary and its twins) play the same phase
// list, so every active or daemon phase hands each of them a generator
// built from the same inputs. A streamHub generates each such record
// stream once and lets every run replay it.

const (
	// streamChunk is how many records a shared stream generates at a
	// time.
	streamChunk = 1024
	// streamWindow is how many chunks a run may fetch ahead of the
	// slowest live run it shares streams with. It bounds the chunks a
	// hub holds, whichever run is ahead.
	streamWindow = 4
)

// genKey is a phase generator's inputs. Runs whose keys are equal
// replay the same records.
type genKey struct {
	prof  workload.Profile
	lines uint64
	seed  int64
}

// streamHub holds the record streams the runs of one Run share. Runs
// join it before any of them starts, each with its memory size in lines;
// runs of equal size share every stream, since they open the same keys
// in the same order. The run furthest ahead generates a stream's next
// chunk under the hub's lock, and chunks every sharing run has read go
// to a free list that later chunks, of any stream, reuse. Safe for
// concurrent use by the runs' goroutines.
type streamHub struct {
	mu sync.Mutex
	// moved is broadcast whenever a run fetches a chunk or leaves, the
	// events a run waiting on the window waits for.
	moved   sync.Cond
	readers []*streamReader // live runs
	streams []*sharedStream // streams some live run has still to read
	free    [][]trace.Record
}

// sharedStream is one phase's record stream: its generator and the
// window of generated chunks some participant may still read.
type sharedStream struct {
	key    genKey
	gen    *workload.Generator
	chunks [][]trace.Record // chunk first+i at index i
	first  int
	// parts are the runs that read the stream: the live runs of its
	// size when it opened. need[i] is the lowest chunk parts[i] may
	// still read (0 until it opens the stream), or streamDone.
	parts []*streamReader
	need  []int
}

// streamDone marks a participant that will read no more of a stream.
const streamDone = int(^uint(0) >> 1)

// streamReader is one run's view of the hub: the trace.Source its
// runner reads. open switches it to a phase's stream. Only its run's
// goroutine calls its methods.
type streamReader struct {
	hub   *streamHub
	lines uint64
	// fetched counts the chunks fetched over every stream: runs that
	// share streams fetch the same chunks in the same order, so it
	// measures how far ahead of another run this one is.
	fetched int
	cur     *sharedStream
	pos     int // the next chunk of cur to fetch
	buf     []trace.Record
	i       int // the next record of buf
}

func newStreamHub() *streamHub {
	h := &streamHub{}
	h.moved.L = &h.mu
	return h
}

// join adds a run of the given memory size. Every run must join before
// any run opens a stream, and must leave when it returns.
func (h *streamHub) join(lines uint64) *streamReader {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := &streamReader{hub: h, lines: lines}
	h.readers = append(h.readers, r)
	return r
}

// open switches the reader to the stream of key, creating the stream if
// no sharing run has opened it yet, and finishes the stream it read
// before.
func (r *streamReader) open(key genKey) error {
	h := r.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	h.finish(r)
	var s *sharedStream
	for _, o := range h.streams {
		if o.key == key {
			s = o
			break
		}
	}
	if s == nil {
		gen, err := workload.NewGenerator(key.prof, key.lines, key.seed)
		if err != nil {
			return err
		}
		s = &sharedStream{key: key, gen: gen}
		for _, q := range h.readers {
			if q.lines == key.lines {
				s.parts = append(s.parts, q)
				s.need = append(s.need, 0)
			}
		}
		h.streams = append(h.streams, s)
	}
	r.cur, r.pos, r.buf, r.i = s, 0, nil, 0
	return nil
}

// Next implements trace.Source. It reads the open stream; with none
// open the stream is empty.
func (r *streamReader) Next() (trace.Record, bool) {
	if r.i == len(r.buf) {
		if r.cur == nil {
			return trace.Record{}, false
		}
		r.buf, r.i = r.hub.fetch(r), 0
	}
	rec := r.buf[r.i]
	r.i++
	return rec, true
}

// leave finishes every stream the reader holds or would still open and
// takes it off the hub, so no run waits on it.
func (r *streamReader) leave() {
	h := r.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, q := range h.readers {
		if q == r {
			h.readers = append(h.readers[:i], h.readers[i+1:]...)
			break
		}
	}
	// Backwards, since release may drop h.streams[i].
	for i := len(h.streams) - 1; i >= 0; i-- {
		h.release(h.streams[i], r)
	}
	r.cur, r.buf, r.i = nil, nil, 0
	h.moved.Broadcast()
}

// fetch returns the reader's next chunk of its open stream. A chunk not
// generated yet is generated by this reader, once it is fewer than
// streamWindow chunks ahead of the slowest live run of its size; until
// then it waits. The slowest run never waits, so some run can always
// move.
func (h *streamHub) fetch(r *streamReader) []trace.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := r.cur
	for r.pos == s.first+len(s.chunks) {
		if r.fetched < h.slowest(r.lines)+streamWindow {
			s.chunks = append(s.chunks, h.generate(s.gen))
			break
		}
		h.moved.Wait()
	}
	buf := s.chunks[r.pos-s.first]
	s.need[s.part(r)] = r.pos
	r.pos++
	r.fetched++
	h.recycle(s)
	h.moved.Broadcast()
	return buf
}

// slowest returns the fewest chunks any live run of the given size has
// fetched.
func (h *streamHub) slowest(lines uint64) int {
	least := streamDone
	for _, q := range h.readers {
		if q.lines == lines {
			least = min(least, q.fetched)
		}
	}
	return least
}

// generate fills a chunk from the free list, or a new one, with the
// generator's next streamChunk records.
func (h *streamHub) generate(gen *workload.Generator) []trace.Record {
	var buf []trace.Record
	if n := len(h.free); n > 0 {
		buf, h.free = h.free[n-1], h.free[:n-1]
	} else {
		buf = make([]trace.Record, 0, streamChunk)
	}
	for range streamChunk {
		rec, _ := gen.Next() // the generator never ends
		buf = append(buf, rec)
	}
	return buf
}

// finish marks the reader done with its open stream, if any.
func (h *streamHub) finish(r *streamReader) {
	if r.cur != nil {
		h.release(r.cur, r)
		r.cur = nil
	}
}

// release marks r done with s and recycles what that frees.
func (h *streamHub) release(s *sharedStream, r *streamReader) {
	if i := s.part(r); i >= 0 {
		s.need[i] = streamDone
		h.recycle(s)
	}
}

// part returns r's index in s.parts, or -1.
func (s *sharedStream) part(r *streamReader) int {
	for i, q := range s.parts {
		if q == r {
			return i
		}
	}
	return -1
}

// recycle moves the chunks of s that no participant may still read to
// the free list, and drops s from the hub once every participant is
// done with it.
func (h *streamHub) recycle(s *sharedStream) {
	least := streamDone
	for _, n := range s.need {
		least = min(least, n)
	}
	if drop := min(least-s.first, len(s.chunks)); drop > 0 {
		for _, c := range s.chunks[:drop] {
			h.free = append(h.free, c[:0])
		}
		n := copy(s.chunks, s.chunks[drop:])
		clear(s.chunks[n:])
		s.chunks = s.chunks[:n]
		s.first += drop
	}
	if least == streamDone {
		for i, o := range h.streams {
			if o == s {
				h.streams = append(h.streams[:i], h.streams[i+1:]...)
				break
			}
		}
	}
}
