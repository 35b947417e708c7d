// Package assoc implements the generic set-associative, LRU-replaced
// lookup structure that underlies every tagged hardware array in the
// simulator: data caches, TLBs, page-walk caches, and the Victima
// predictor.
//
// Keys are uint64 tags chosen by the caller (cache-line numbers, virtual
// page numbers, walk prefixes). The set index is taken from the low bits
// of the key after a mixing step, so callers may pass keys with poor
// low-bit entropy.
//
// Every simulated cache, TLB and PWC access lands here, which makes this
// package the largest single share of run-phase CPU in the profile
// (perfbench's assoc.run_share, ahead of resource reservation). The
// storage is structure-of-arrays: tags and values live in two parallel
// set-major slices, so Lookup scans a dense run of bare uint64 tags
// instead of striding over full entry structs. Each set's metadata is
// one 16-byte struct: an occupancy bitmask (bit w = way w valid) and a
// recency word. Nibble k of the recency word holds the way at recency
// position k, position 0 being the most recently used; a touch moves the
// way to the front with a SWAR nibble search and a shift, and the LRU
// victim is simply the nibble at position ways-1. Replacement is
// therefore O(1) with no per-way stamps to scan, and a set's occupancy
// and recency share one host cache line.
//
// The recency word is a move-to-front list over every touch of the set,
// which orders ways exactly as unique, increasing global timestamps
// would. Victim selection, free-way choice (lowest invalid way), and
// Range order are bit for bit what the original array-of-structs
// implementation with a global LRU clock produced.
package assoc

import "math/bits"

// maxWays is the largest associativity New accepts: the recency word
// holds one 4-bit way number per recency position.
const maxWays = 16

// identityOrder is the initial recency word: way k at position k.
const identityOrder = 0xFEDCBA9876543210

// Nibble-lane constants for the SWAR zero-nibble search.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// setMeta is one set's metadata, kept together so a lookup that hits or
// misses touches a single host cache line for it.
type setMeta struct {
	occ   uint64 // bit w = way w valid
	order uint64 // nibble k = way at recency position k (0 = MRU)
}

// Table is a set-associative array mapping uint64 keys to values of type V
// with true-LRU replacement within each set.
type Table[V any] struct {
	sets int
	ways int
	mask uint64
	// Parallel set-major arrays, sets*ways entries each: way w of set s
	// is index s*ways+w in both. A tag or value is meaningful only while
	// the way's occupancy bit is set; clearing the bit is the only
	// invalidation (stale tags never match because the bit gates them).
	tags []uint64
	vals []V
	meta []setMeta
	// victimShift is the bit offset of recency position ways-1.
	victimShift uint
}

// New creates a table with the given number of sets (must be a power of
// two, >= 1) and ways (1..16 — the recency word holds 16 nibbles).
func New[V any](sets, ways int) *Table[V] {
	if sets < 1 || sets&(sets-1) != 0 {
		panic("assoc: sets must be a positive power of two")
	}
	if ways < 1 || ways > maxWays {
		panic("assoc: ways must be in 1..16")
	}
	meta := make([]setMeta, sets)
	for i := range meta {
		meta[i].order = identityOrder
	}
	return &Table[V]{
		sets:        sets,
		ways:        ways,
		mask:        uint64(sets - 1),
		tags:        make([]uint64, sets*ways),
		vals:        make([]V, sets*ways),
		meta:        meta,
		victimShift: uint(4 * (ways - 1)),
	}
}

// Sets returns the number of sets.
func (t *Table[V]) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *Table[V]) Ways() int { return t.ways }

// Capacity returns sets*ways.
func (t *Table[V]) Capacity() int { return t.sets * t.ways }

// mix spreads key entropy into the set-index bits. Fibonacci hashing; keys
// such as sequential VPNs stay conflict-free, pathological strides do not
// all land in one set.
func mix(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15 >> 17
}

// toFront returns order with way w moved to recency position 0 and the
// ways that were ahead of it shifted back one position. The recency word
// is always a permutation of 0..15, so w occurs in exactly one nibble:
// XOR zeroes that nibble, and the lowest flagged lane of the classic
// zero-byte test (borrows only flag lanes above a true zero) is its
// position.
func toFront(order uint64, w int) uint64 {
	x := order ^ uint64(w)*nibbleOnes
	pos := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHigh)) &^ 3
	return moveToFront(order, pos, uint64(w))
}

// moveToFront moves way w, found at bit offset pos of order, to position
// 0. Positions 0..pos are rotated up one nibble; those above pos stay.
// For pos = 60 the shift by 64 yields 0, so the mask covers every bit.
func moveToFront(order uint64, pos uint, w uint64) uint64 {
	m := uint64(1)<<(pos+4) - 1
	return order&^m | order<<4&m | w
}

// find returns the set of key and the way holding it, or way -1. The tag
// scan runs over the dense tag run for the set; the occupancy bit gates
// stale tags.
func (t *Table[V]) find(key uint64) (s, w int) {
	s = int(mix(key) & t.mask)
	base := s * t.ways
	occ := t.meta[s].occ
	for w, tag := range t.tags[base : base+t.ways] {
		if tag == key && occ&(1<<uint(w)) != 0 {
			return s, w
		}
	}
	return s, -1
}

// Lookup finds key, promoting it to most-recently-used. The second result
// reports whether the key was present.
func (t *Table[V]) Lookup(key uint64) (V, bool) {
	if s, w := t.find(key); w >= 0 {
		// Repeat hits on the MRU way (a TLB re-translating the same
		// page) skip the reorder and its store.
		if m := &t.meta[s]; m.order&0xF != uint64(w) {
			m.order = toFront(m.order, w)
		}
		return t.vals[s*t.ways+w], true
	}
	var zero V
	return zero, false
}

// Peek finds key without updating recency.
func (t *Table[V]) Peek(key uint64) (V, bool) {
	if s, w := t.find(key); w >= 0 {
		return t.vals[s*t.ways+w], true
	}
	var zero V
	return zero, false
}

// Update replaces the value of an existing key without changing recency.
// It reports whether the key was present.
func (t *Table[V]) Update(key uint64, v V) bool {
	if s, w := t.find(key); w >= 0 {
		t.vals[s*t.ways+w] = v
		return true
	}
	return false
}

// Insert adds key with value v, evicting the LRU entry of the set if it is
// full. If the key is already present its value is replaced and promoted.
// The eviction results report what was displaced, so caches can model
// dirty write-backs.
func (t *Table[V]) Insert(key uint64, v V) (evictedKey uint64, evictedVal V, evicted bool) {
	s, w := t.find(key)
	base := s * t.ways
	m := &t.meta[s]
	// Hit: replace in place.
	if w >= 0 {
		t.vals[base+w] = v
		m.order = toFront(m.order, w)
		return 0, evictedVal, false
	}
	// Free way: the lowest invalid one, same choice the AoS scan made.
	if w := bits.TrailingZeros64(^m.occ); w < t.ways {
		t.tags[base+w] = key
		t.vals[base+w] = v
		m.occ |= 1 << uint(w)
		m.order = toFront(m.order, w)
		return 0, evictedVal, false
	}
	// Evict LRU (every way is valid here): the way at the last position.
	victim := m.order >> t.victimShift & 0xF
	m.order = moveToFront(m.order, t.victimShift, victim)
	i := base + int(victim)
	evictedKey, evictedVal = t.tags[i], t.vals[i]
	t.tags[i] = key
	t.vals[i] = v
	return evictedKey, evictedVal, true
}

// Invalidate removes key, reporting whether it was present. The recency
// word is left alone: a set is full again only after the freed way is
// refilled, which moves it to the front, so a stale position never
// chooses a victim.
func (t *Table[V]) Invalidate(key uint64) bool {
	if s, w := t.find(key); w >= 0 {
		t.meta[s].occ &^= 1 << uint(w)
		return true
	}
	return false
}

// Flush removes every entry. Recency words are kept, as Invalidate
// keeps them.
func (t *Table[V]) Flush() {
	for i := range t.meta {
		t.meta[i].occ = 0
	}
}

// Len returns the number of valid entries.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.meta {
		n += bits.OnesCount64(t.meta[i].occ)
	}
	return n
}

// Range calls fn for every valid entry; if fn returns false iteration
// stops. Iteration order is internal array order (deterministic).
func (t *Table[V]) Range(fn func(key uint64, v V) bool) {
	for s := range t.meta {
		occ := t.meta[s].occ
		if occ == 0 {
			continue
		}
		base := s * t.ways
		for w := 0; w < t.ways; w++ {
			if occ&(1<<uint(w)) != 0 && !fn(t.tags[base+w], t.vals[base+w]) {
				return
			}
		}
	}
}
