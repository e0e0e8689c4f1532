package core

// pairCounter counts co-modification episodes per key pair. It is an
// open-addressed hash table keyed by a single uint64 packing the pair's
// two interned key ids (lo in the high word, hi in the low word, lo < hi),
// replacing a map[pairKey]int, once the hottest allocation site of the
// whole analytics path: one map entry per distinct pair plus rehash
// garbage on every build. The flat table costs two
// word-sized slices, grows geometrically, and increments with one
// multiply-shift probe in the common case.
//
// lo < hi guarantees a packed key is never 0 (hi >= 1), so 0 is the empty
// slot sentinel.
type pairCounter struct {
	keys []uint64
	vals []uint32
	n    int // live entries
	mask uint64
}

// packPair packs two distinct interned key ids into the counter's key.
// Ids are bounded by the interned symbol table size, far below 2^32.
func packPair(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// unpackPair splits a packed key back into (lo, hi).
func unpackPair(k uint64) (int, int) {
	return int(k >> 32), int(uint32(k))
}

// pairCounterMinCap keeps tiny tables from rehashing immediately.
const pairCounterMinCap = 64

// pairHash spreads packed keys over the table (Fibonacci hashing).
func pairHash(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

func newPairCounter() *pairCounter {
	return &pairCounter{
		keys: make([]uint64, pairCounterMinCap),
		vals: make([]uint32, pairCounterMinCap),
		mask: pairCounterMinCap - 1,
	}
}

// incr adds one to the pair's count, inserting it if absent.
func (pc *pairCounter) incr(k uint64) { pc.add(k, 1) }

// add folds n (> 0) occurrences of the pair into the count, inserting the
// pair if absent. It is incr's bulk form, used when merging a peer
// accumulator's counts.
func (pc *pairCounter) add(k uint64, n int) {
	i := pairHash(k) & pc.mask
	for {
		switch pc.keys[i] {
		case k:
			pc.vals[i] += uint32(n)
			return
		case 0:
			// Grow at 7/8 load: linear probing stays short and the table
			// is never more than ~15% slack at steady state.
			if pc.n+1 > len(pc.keys)-len(pc.keys)/8 {
				pc.grow()
				i = pairHash(k) & pc.mask
				for pc.keys[i] != 0 {
					i = (i + 1) & pc.mask
				}
			}
			pc.keys[i] = k
			pc.vals[i] = uint32(n)
			pc.n++
			return
		}
		i = (i + 1) & pc.mask
	}
}

// clone returns an independent deep copy of the counter.
func (pc *pairCounter) clone() *pairCounter {
	out := &pairCounter{
		keys: make([]uint64, len(pc.keys)),
		vals: make([]uint32, len(pc.vals)),
		n:    pc.n,
		mask: pc.mask,
	}
	copy(out.keys, pc.keys)
	copy(out.vals, pc.vals)
	return out
}

// get returns the pair's count, 0 if absent.
func (pc *pairCounter) get(k uint64) int {
	i := pairHash(k) & pc.mask
	for {
		switch pc.keys[i] {
		case k:
			return int(pc.vals[i])
		case 0:
			return 0
		}
		i = (i + 1) & pc.mask
	}
}

// len returns the number of distinct pairs counted.
func (pc *pairCounter) len() int { return pc.n }

// grow doubles the table and reinserts every entry.
func (pc *pairCounter) grow() {
	oldKeys, oldVals := pc.keys, pc.vals
	size := len(oldKeys) * 2
	pc.keys = make([]uint64, size)
	pc.vals = make([]uint32, size)
	pc.mask = uint64(size - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := pairHash(k) & pc.mask
		for pc.keys[j] != 0 {
			j = (j + 1) & pc.mask
		}
		pc.keys[j] = k
		pc.vals[j] = oldVals[i]
	}
}

// forEach visits every counted pair in unspecified order.
func (pc *pairCounter) forEach(fn func(k uint64, count int)) {
	for i, k := range pc.keys {
		if k != 0 {
			fn(k, int(pc.vals[i]))
		}
	}
}
