// Package cache implements the last-level cache of the baseline system
// (Table II: 1 MB, 64 B lines): a set-associative, write-back,
// write-allocate cache with true-LRU replacement. The simulator's
// synthetic workloads are calibrated at the miss stream, so the cache is
// used for trace filtering (cmd/tracegen) and examples.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrBadGeometry reports an invalid cache shape.
var ErrBadGeometry = errors.New("cache: invalid geometry")

// AccessResult describes the outcome of one access.
type AccessResult struct {
	// Hit is true when the line was present.
	Hit bool
	// Fill is the line address to fetch from memory on a miss.
	Fill uint64
	// Writeback, when WritebackValid, is the dirty victim to write back.
	Writeback      uint64
	WritebackValid bool
}

// Stats counts cache events.
type Stats struct {
	// Hits and Misses count accesses by outcome.
	Hits, Misses uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
}

// MissRate returns misses / accesses.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	// lastUse orders LRU within a set.
	lastUse uint64
}

// Cache is a set-associative write-back cache, indexed by line address.
// It is not safe for concurrent use.
type Cache struct {
	sets     [][]way
	assoc    int
	setBits  int
	useClock uint64
	stats    Stats
}

// New builds a cache of sizeBytes with the given line size and
// associativity.
func New(sizeBytes, lineBytes, assoc int) (*Cache, error) {
	if sizeBytes <= 0 || lineBytes <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("%w: size=%d line=%d assoc=%d", ErrBadGeometry, sizeBytes, lineBytes, assoc)
	}
	lines := sizeBytes / lineBytes
	if lines*lineBytes != sizeBytes || lines%assoc != 0 {
		return nil, fmt.Errorf("%w: %d lines not divisible into %d ways", ErrBadGeometry, lines, assoc)
	}
	nSets := lines / assoc
	if nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("%w: %d sets not a power of two", ErrBadGeometry, nSets)
	}
	sets := make([][]way, nSets)
	for i := range sets {
		sets[i] = make([]way, assoc)
	}
	return &Cache{
		sets:    sets,
		assoc:   assoc,
		setBits: bits.TrailingZeros(uint(nSets)),
	}, nil
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

// Access performs one access by line address. isWrite marks the line
// dirty on hit or fill (write-allocate).
func (c *Cache) Access(lineAddr uint64, isWrite bool) AccessResult {
	c.useClock++
	setIdx := lineAddr & uint64(len(c.sets)-1)
	tag := lineAddr >> c.setBits
	set := c.sets[setIdx]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.useClock
			if isWrite {
				set[i].dirty = true
			}
			c.stats.Hits++
			return AccessResult{Hit: true}
		}
	}
	c.stats.Misses++

	// Choose a victim: invalid way first, else LRU.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	res := AccessResult{Fill: lineAddr}
	if set[victim].valid && set[victim].dirty {
		res.Writeback = set[victim].tag<<c.setBits | setIdx
		res.WritebackValid = true
		c.stats.Writebacks++
	}
	set[victim] = way{tag: tag, valid: true, dirty: isWrite, lastUse: c.useClock}
	return res
}
