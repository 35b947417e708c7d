package assoc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []struct{ sets, ways int }{{0, 1}, {3, 1}, {4, 0}, {-4, 2}, {4, maxWays + 1}, {1, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", bad.sets, bad.ways)
				}
			}()
			New[int](bad.sets, bad.ways)
		}()
	}
	tab := New[int](8, 2)
	if tab.Sets() != 8 || tab.Ways() != 2 || tab.Capacity() != 16 {
		t.Error("geometry accessors wrong")
	}
	if tab := New[int](1, maxWays); tab.Ways() != 16 {
		t.Errorf("New(1, maxWays).Ways() = %d, want 16", tab.Ways())
	}
}

func TestLookupInsert(t *testing.T) {
	tab := New[string](4, 2)
	if _, ok := tab.Lookup(1); ok {
		t.Fatal("lookup in empty table hit")
	}
	tab.Insert(1, "one")
	v, ok := tab.Lookup(1)
	if !ok || v != "one" {
		t.Fatalf("Lookup(1) = %q, %v", v, ok)
	}
	// Replace in place.
	tab.Insert(1, "uno")
	if v, _ := tab.Lookup(1); v != "uno" {
		t.Fatalf("after replace: %q", v)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	// Fully-associative (1 set) makes LRU order easy to check.
	tab := New[int](1, 2)
	tab.Insert(10, 1)
	tab.Insert(20, 2)
	tab.Lookup(10) // promote 10; 20 becomes LRU
	k, v, evicted := tab.Insert(30, 3)
	if !evicted || k != 20 || v != 2 {
		t.Fatalf("evicted (%d,%d,%v), want (20,2,true)", k, v, evicted)
	}
	if _, ok := tab.Lookup(10); !ok {
		t.Error("promoted entry 10 was evicted")
	}
	if _, ok := tab.Lookup(20); ok {
		t.Error("LRU entry 20 still present")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	tab := New[int](1, 2)
	tab.Insert(1, 1)
	tab.Insert(2, 2)
	tab.Peek(1) // must NOT promote 1
	_, _, evicted := tab.Insert(3, 3)
	if !evicted {
		t.Fatal("expected eviction")
	}
	if _, ok := tab.Peek(1); ok {
		t.Error("1 should have been evicted (Peek must not promote)")
	}
	if _, ok := tab.Peek(2); !ok {
		t.Error("2 should have survived")
	}
}

func TestUpdate(t *testing.T) {
	tab := New[int](1, 2)
	tab.Insert(1, 1)
	tab.Insert(2, 2)
	if !tab.Update(1, 100) {
		t.Fatal("Update of present key failed")
	}
	if tab.Update(99, 0) {
		t.Fatal("Update of absent key succeeded")
	}
	// Update must not promote: 1 is still LRU.
	_, _, _ = tab.Insert(3, 3)
	if _, ok := tab.Peek(1); ok {
		t.Error("Update promoted key 1")
	}
	if v, ok := tab.Peek(2); !ok || v != 2 {
		t.Error("key 2 lost")
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	tab := New[int](4, 2)
	tab.Insert(1, 1)
	tab.Insert(2, 2)
	if !tab.Invalidate(1) {
		t.Fatal("Invalidate of present key failed")
	}
	if tab.Invalidate(1) {
		t.Fatal("Invalidate of absent key succeeded")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	tab.Flush()
	if tab.Len() != 0 {
		t.Fatal("Flush left entries")
	}
}

func TestRange(t *testing.T) {
	tab := New[int](4, 2)
	for k := uint64(0); k < 5; k++ {
		tab.Insert(k, int(k)*10)
	}
	sum := 0
	tab.Range(func(k uint64, v int) bool {
		sum += v
		return true
	})
	if sum != 0+10+20+30+40 {
		t.Errorf("Range sum = %d", sum)
	}
	count := 0
	tab.Range(func(k uint64, v int) bool {
		count++
		return false // early stop
	})
	if count != 1 {
		t.Errorf("early-stop Range visited %d entries", count)
	}
}

// Property: the table never holds more than capacity entries and a key
// inserted last in its set is always found.
func TestCapacityProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		tab := New[uint64](4, 4)
		for _, k := range keys {
			tab.Insert(k, k)
			if v, ok := tab.Lookup(k); !ok || v != k {
				return false
			}
		}
		return tab.Len() <= tab.Capacity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with unique keys not exceeding one set's ways, nothing is ever
// evicted from a fully-associative table until capacity is reached.
func TestNoPrematureEviction(t *testing.T) {
	tab := New[int](1, 8)
	for k := uint64(0); k < 8; k++ {
		if _, _, evicted := tab.Insert(k, 0); evicted {
			t.Fatalf("premature eviction at key %d", k)
		}
	}
	if _, _, evicted := tab.Insert(8, 0); !evicted {
		t.Fatal("insert beyond capacity did not evict")
	}
}

func TestSetDistribution(t *testing.T) {
	// Sequential keys must spread over sets, not collide in one.
	tab := New[int](64, 1)
	evictions := 0
	for k := uint64(0); k < 64; k++ {
		if _, _, ev := tab.Insert(k, 0); ev {
			evictions++
		}
	}
	// Perfect spreading would give 0; tolerate mild imbalance from mixing.
	if evictions > 24 {
		t.Errorf("sequential keys caused %d evictions in 64 sets", evictions)
	}
}

// refTable is the pre-SoA array-of-structs implementation with a global
// LRU clock and a per-way stamp scan, kept verbatim as the differential
// oracle: the table must make identical hit, free-way, victim, and
// Range-order decisions for any operation mix, because table decisions
// feed simulated timing and the golden tests pin that timing bit for
// bit. Peek, Update and Flush mirror the Table contract: none of them
// touches a stamp.
type refTable[V any] struct {
	ways  int
	mask  uint64
	lines []refLine[V]
	clock uint64
}

type refLine[V any] struct {
	key   uint64
	value V
	valid bool
	lru   uint64
}

func newRef[V any](sets, ways int) *refTable[V] {
	return &refTable[V]{ways: ways, mask: uint64(sets - 1), lines: make([]refLine[V], sets*ways)}
}

func (t *refTable[V]) set(key uint64) []refLine[V] {
	s := int(mix(key) & t.mask)
	return t.lines[s*t.ways : (s+1)*t.ways]
}

func (t *refTable[V]) Lookup(key uint64) (V, bool) {
	set := t.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			t.clock++
			set[i].lru = t.clock
			return set[i].value, true
		}
	}
	var zero V
	return zero, false
}

func (t *refTable[V]) Insert(key uint64, v V) (uint64, V, bool) {
	var zeroV V
	set := t.set(key)
	t.clock++
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i].value = v
			set[i].lru = t.clock
			return 0, zeroV, false
		}
	}
	for i := range set {
		if !set[i].valid {
			set[i] = refLine[V]{key: key, value: v, valid: true, lru: t.clock}
			return 0, zeroV, false
		}
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	ek, ev := set[victim].key, set[victim].value
	set[victim] = refLine[V]{key: key, value: v, valid: true, lru: t.clock}
	return ek, ev, true
}

func (t *refTable[V]) Invalidate(key uint64) bool {
	set := t.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i].valid = false
			return true
		}
	}
	return false
}

func (t *refTable[V]) Range(fn func(key uint64, v V) bool) {
	for i := range t.lines {
		if t.lines[i].valid && !fn(t.lines[i].key, t.lines[i].value) {
			return
		}
	}
}

func (t *refTable[V]) Peek(key uint64) (V, bool) {
	set := t.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			return set[i].value, true
		}
	}
	var zero V
	return zero, false
}

func (t *refTable[V]) Update(key uint64, v V) bool {
	set := t.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i].value = v
			return true
		}
	}
	return false
}

func (t *refTable[V]) Flush() {
	for i := range t.lines {
		t.lines[i].valid = false
	}
}

// Operation kinds of the differential tests.
const (
	opInsert = iota
	opLookup
	opPeek
	opUpdate
	opInvalidate
	opFlush
)

// pair is a Table and the AoS reference driven in lockstep.
type pair struct {
	got  *Table[uint64]
	want *refTable[uint64]
}

func newPair(sets, ways int) pair {
	return pair{got: New[uint64](sets, ways), want: newRef[uint64](sets, ways)}
}

// apply runs one operation on both tables and reports the first
// disagreement.
func (p pair) apply(kind int, key, val uint64) error {
	switch kind {
	case opInsert:
		gk, gv, ge := p.got.Insert(key, val)
		wk, wv, we := p.want.Insert(key, val)
		if gk != wk || gv != wv || ge != we {
			return fmt.Errorf("Insert(%d) = (%d,%d,%v), reference (%d,%d,%v)", key, gk, gv, ge, wk, wv, we)
		}
	case opLookup:
		gv, gok := p.got.Lookup(key)
		wv, wok := p.want.Lookup(key)
		if gv != wv || gok != wok {
			return fmt.Errorf("Lookup(%d) = (%d,%v), reference (%d,%v)", key, gv, gok, wv, wok)
		}
	case opPeek:
		gv, gok := p.got.Peek(key)
		wv, wok := p.want.Peek(key)
		if gv != wv || gok != wok {
			return fmt.Errorf("Peek(%d) = (%d,%v), reference (%d,%v)", key, gv, gok, wv, wok)
		}
	case opUpdate:
		if g, w := p.got.Update(key, val), p.want.Update(key, val); g != w {
			return fmt.Errorf("Update(%d) = %v, reference %v", key, g, w)
		}
	case opInvalidate:
		if g, w := p.got.Invalidate(key), p.want.Invalidate(key); g != w {
			return fmt.Errorf("Invalidate(%d) = %v, reference %v", key, g, w)
		}
	case opFlush:
		p.got.Flush()
		p.want.Flush()
	}
	return nil
}

// sameRange reports whether both tables hold the same entries in the
// same Range order.
func (p pair) sameRange() error {
	var gSeq, wSeq []uint64
	p.got.Range(func(k uint64, v uint64) bool { gSeq = append(gSeq, k, v); return true })
	p.want.Range(func(k uint64, v uint64) bool { wSeq = append(wSeq, k, v); return true })
	if len(gSeq) != len(wSeq) {
		return fmt.Errorf("Range visited %d entries, reference %d", len(gSeq)/2, len(wSeq)/2)
	}
	for i := range gSeq {
		if gSeq[i] != wSeq[i] {
			return fmt.Errorf("Range order diverged at %d: %d vs %d", i, gSeq[i], wSeq[i])
		}
	}
	if p.got.Len() != len(gSeq)/2 {
		return fmt.Errorf("Len = %d, Range visited %d", p.got.Len(), len(gSeq)/2)
	}
	return nil
}

// testWays are the associativities the differential tests cover: every
// geometry the simulator builds (4, 8, 12, 16) plus the degenerate ones.
var testWays = []int{1, 2, 4, 8, 12, 16}

// TestSoAMatchesAoSReference drives the table and the AoS reference
// through long pseudo-random operation mixes on small hot tables (heavy
// eviction and invalidation, occasional Flush) at every tested
// associativity, and requires identical results, including eviction
// victims and Range order.
func TestSoAMatchesAoSReference(t *testing.T) {
	for _, ways := range testWays {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			state := uint64(0x2545F4914F6CDD1D) + uint64(ways)
			next := func() uint64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return state
			}
			const sets = 4
			p := newPair(sets, ways)
			hot := uint64(sets * (ways + ways/2 + 2)) // constant conflict
			for op := 0; op < 20000; op++ {
				key := next() % hot
				var kind int
				switch r := next() % 64; {
				case r < 28:
					kind = opInsert
				case r < 42:
					kind = opLookup
				case r < 50:
					kind = opPeek
				case r < 55:
					kind = opUpdate
				case r < 63:
					kind = opInvalidate
				default:
					kind = opFlush
				}
				if err := p.apply(kind, key, uint64(op)); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if op%500 == 0 {
					if err := p.sameRange(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
		})
	}
}

// keysInSet returns n distinct keys that map to set 0 of a table with
// the given number of sets.
func keysInSet(sets, n int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if mix(k)&uint64(sets-1) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestStaleRecencyAfterRefill covers the two ways stale recency state
// could leak into a victim choice: a set filled, reordered and Flushed,
// then refilled; and a full set with one way Invalidated and re-filled.
// After each, a run of conflicting inserts must evict exactly what the
// stamp-based reference evicts.
func TestStaleRecencyAfterRefill(t *testing.T) {
	const sets = 4
	for _, ways := range testWays {
		keys := keysInSet(sets, 4*ways+4)
		fill := func(p pair, ks []uint64) {
			for _, k := range ks {
				if err := p.apply(opInsert, k, k); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Reverse the recency of the first fill, so a stale order
		// would name the wrong victims after the refill.
		scramble := func(p pair, ks []uint64) {
			for i := len(ks) - 1; i >= 0; i-- {
				if err := p.apply(opLookup, ks[i], 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		evictAll := func(name string, p pair, ks []uint64) {
			for _, k := range ks {
				if err := p.apply(opInsert, k, k); err != nil {
					t.Fatalf("ways=%d %s: %v", ways, name, err)
				}
			}
			if err := p.sameRange(); err != nil {
				t.Fatalf("ways=%d %s: %v", ways, name, err)
			}
		}

		p := newPair(sets, ways)
		fill(p, keys[:ways])
		scramble(p, keys[:ways])
		p.apply(opFlush, 0, 0)
		if p.got.Len() != 0 {
			t.Fatalf("ways=%d: Len after Flush = %d", ways, p.got.Len())
		}
		// Refill with different keys in the other order, touching a
		// middle one so the refill order is not the way order.
		refill := keys[ways : 2*ways]
		for i := len(refill) - 1; i >= 0; i-- {
			fill(p, refill[i:i+1])
		}
		p.apply(opLookup, refill[ways/2], 0)
		evictAll("flush+refill", p, keys[2*ways:3*ways+1])

		p = newPair(sets, ways)
		fill(p, keys[:ways])
		scramble(p, keys[:ways])
		victim := keys[ways/2]
		if err := p.apply(opInvalidate, victim, 0); err != nil {
			t.Fatal(err)
		}
		fill(p, []uint64{victim}) // re-insert takes the invalidated way
		evictAll("invalidate+reinsert", p, keys[ways:2*ways+1])
	}
}

// FuzzTableMatchesReference decodes (ways, op stream) and requires the
// table to agree with the AoS reference on every result and, after every
// operation, on Range contents and order. Each op is two bytes: the
// first picks the kind (Flush at 1 in 16), the second the key, drawn
// from a range about three times the capacity of a 2-set table.
func FuzzTableMatchesReference(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 0, 3, 0, 5, 0, 7, 0, 9, 1, 3, 0, 11, 4, 5, 0, 13})
	f.Add(uint8(16), []byte{0, 0, 0, 1, 0, 2, 15, 0, 0, 3, 0, 4, 1, 3, 9, 4, 0, 5})
	f.Fuzz(func(t *testing.T, w uint8, ops []byte) {
		ways := int(w)%maxWays + 1
		const sets = 2
		p := newPair(sets, ways)
		for i := 0; i+1 < len(ops); i += 2 {
			var kind int
			switch b := ops[i] % 16; {
			case b < 6:
				kind = opInsert
			case b < 9:
				kind = opLookup
			case b < 11:
				kind = opPeek
			case b < 12:
				kind = opUpdate
			case b < 15:
				kind = opInvalidate
			default:
				kind = opFlush
			}
			key := uint64(ops[i+1]) % uint64(3*sets*ways+1)
			if err := p.apply(kind, key, uint64(i)); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			if err := p.sameRange(); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}

func BenchmarkLookupHit(b *testing.B) {
	t := New[uint64](64, 8)
	t.Insert(42, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(42)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	t := New[uint64](64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(uint64(i), uint64(i))
	}
}

// l3Sets and l3Ways are the 4-core CPU L3 geometry (8 MB of 64-byte
// lines, 16-way): the table's arrays far exceed the host's L1 and L2,
// so these benchmarks see the host cache misses a simulated L3 pays.
const l3Sets, l3Ways = 8192, 16

// l3Keys returns seeded random line numbers over four times the L3's
// capacity, so inserts mostly miss and evict.
func l3Keys() []uint64 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<20)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(4 * l3Sets * l3Ways))
	}
	return keys
}

func BenchmarkInsertEvictL3(b *testing.B) {
	t := New[uint64](l3Sets, l3Ways)
	keys := l3Keys()
	for _, k := range keys {
		t.Insert(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		t.Insert(k, k)
	}
}

func BenchmarkLookupL3(b *testing.B) {
	t := New[uint64](l3Sets, l3Ways)
	keys := l3Keys()
	for _, k := range keys {
		t.Insert(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(keys[i&(len(keys)-1)])
	}
}
