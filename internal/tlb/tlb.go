// Package tlb models translation lookaside buffers: set-associative or
// fully-associative with LRU replacement, ASID-tagged entries, page and
// address-space invalidation, and an infinite mode used for the paper's
// "demand miss" and IDEAL MMU configurations. Optional lifetime hooks feed
// the appendix figure comparing TLB-entry residence against cache-line
// residence.
//
// A finite TLB never scans a set on the access path, whatever its
// geometry. A flatmap index maps (asid, vpn, large) to the way holding the
// entry; each set keeps its resident ways on an intrusive LRU list and its
// empty ways on a free stack. A hit is one index probe plus a move to the
// list head, and a miss fill pops the free stack or takes the list tail.
//
// Bulk invalidation (InvalidateAll / InvalidateASID) is epoch-based by
// default: each entry records the generation it was inserted under, a bulk
// invalidation bumps a generation counter and defers the physical work,
// and the index shares the TLB's epoch, so dead entries are invisible to
// lookups at once. Their ways stay on the LRU lists until a fill finds its
// set's free stack empty; only then, and only if a bulk invalidation
// happened since the set was last swept, is the set swept for dead ways.
// Residency counts are maintained incrementally so Len() and the obs gauge
// stay exact without scanning. The infinite-mode maps are flatmap tables
// that reclaim dead slots on the probe path, so steady-state lookups and
// inserts are allocation-free. The eager scan paths survive behind the
// Eager flag for differential testing and for owners that need per-entry
// OnEvict observation during bulk flushes.
package tlb

import (
	"fmt"
	"slices"

	"vcache/internal/flatmap"
	"vcache/internal/memory"
	"vcache/internal/obs"
)

// Entry is a cached translation. Large entries cover a 2MB region: VPN and
// PPN hold the region base and Frame resolves individual 4KB pages.
type Entry struct {
	VPN   memory.VPN
	PPN   memory.PPN
	ASID  memory.ASID
	Perm  memory.Perm
	Large bool

	born       uint32 // generation at insertion (epoch invalidation)
	insertedAt uint64
}

// Frame returns the physical frame for vpn, which must lie in the entry's
// reach (always true for the VPN a Lookup hit returned it for).
func (e Entry) Frame(vpn memory.VPN) memory.PPN {
	if !e.Large {
		return e.PPN
	}
	return e.PPN + memory.PPN(vpn-e.VPN)
}

// Config describes a TLB.
type Config struct {
	// Entries is the total entry count. Zero or negative means infinite.
	Entries int
	// Assoc is the set associativity. Zero means fully associative.
	Assoc int
}

// Infinite reports whether the configuration models an unbounded TLB.
func (c Config) Infinite() bool { return c.Entries <= 0 }

// Stats are the TLB's event counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Inserts    uint64
	Evictions  uint64
	Shootdowns uint64
}

// Accesses returns hits+misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRatio returns misses / accesses.
func (s Stats) MissRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

// asidCnt tracks one address space's live entries so lazy InvalidateASID
// can account for them without a scan.
type asidCnt struct {
	n     int // live entries
	large int // of which 2MB entries
}

// nilWay terminates the intrusive lists.
const nilWay = -1

// link is one finite-mode way's list state, kept apart from the entries
// so LRU updates touch only this small, hot array. A resident way sits on
// its set's LRU list (prev/next); an empty way sits on the set's free
// stack (next).
type link struct {
	prev, next int32
	set        int32
	used       bool // resident: on the LRU list, not the free stack
}

// set is one finite-mode set: the LRU list of its resident ways (head is
// most recently used), the free stack of its empty ways, and the bulk
// invalidation count at its last sweep for epoch-dead ways.
type set struct {
	head, tail int32
	free       int32
	swept      uint64
}

// TLB is a translation lookaside buffer.
type TLB struct {
	cfg      Config
	isInf    bool
	inf      flatmap.Map[Entry] // infinite mode: 4KB entries, packed (asid, vpn) keys
	infLarge flatmap.Map[Entry] // infinite mode: 2MB entries, keyed by region base
	tick     uint64
	stats    Stats

	// Finite mode. Set s owns ways s*assoc .. (s+1)*assoc-1: their entries
	// in ways, their list links in links. idx and idxLarge map packed
	// (asid, vpn) keys of 4KB and 2MB entries to their way; they share
	// ep, so an epoch-dead entry is absent from them even while its way
	// still sits on an LRU list.
	ways     []Entry
	links    []link
	sets     []set
	idx      flatmap.Map[int32]
	idxLarge flatmap.Map[int32]
	large    int    // resident 2MB entries (skip the large probe when 0)
	bulks    uint64 // lazy bulk invalidations that retired entries

	// Epoch invalidation state. An entry is live iff its born generation
	// survives every death mark in ep. Generations only advance on lazy bulk
	// invalidations; normalize() rewinds everything before the uint32
	// counter can wrap. Every flat table shares ep, so each reclaims its
	// own dead slots during probes.
	ep       flatmap.Epoch
	resident int                  // live entries (maintained, so Len is O(1))
	perASID  flatmap.Map[asidCnt] // keyed by uint64(asid)

	// Eager restores scan-based bulk invalidation: InvalidateAll and
	// InvalidateASID walk the structure and fire OnEvict per entry (in
	// deterministic order: sorted keys for infinite maps, way order for
	// finite sets). Lazy bulk invalidation never fires OnEvict, so owners
	// that observe individual evictions (lifetime tracking) must set Eager.
	Eager bool

	// Clock, if set, supplies the current cycle for lifetime tracking.
	Clock func() uint64
	// OnEvict, if set, is called when a valid entry leaves the TLB
	// (replacement or invalidation) with the entry and its residence time
	// in cycles. Lazy bulk invalidations (Eager == false) skip it.
	OnEvict func(e Entry, lifetime uint64)
	// Trace, if set, receives a cycle-stamped "miss" event for every
	// lookup miss, with the missing VPN as the argument. A nil emitter
	// costs one branch, keeping Lookup allocation-free when tracing is off.
	Trace *obs.Emitter
}

// infKey packs a TLB key for the flat maps.
func infKey(asid memory.ASID, vpn memory.VPN) uint64 {
	return flatmap.Key(uint16(asid), uint64(vpn))
}

// New builds a TLB from cfg.
func New(cfg Config) *TLB {
	t := &TLB{cfg: cfg}
	if cfg.Infinite() {
		t.isInf = true
		t.inf.Init(&t.ep)
		t.infLarge.Init(&t.ep)
		return t
	}
	assoc := cfg.Assoc
	if assoc <= 0 || assoc > cfg.Entries {
		assoc = cfg.Entries // fully associative
	}
	numSets := cfg.Entries / assoc
	if numSets < 1 {
		numSets = 1
	}
	t.idx.Init(&t.ep)
	t.idxLarge.Init(&t.ep)
	t.idx.Grow(numSets * assoc)
	t.ways = make([]Entry, numSets*assoc)
	t.links = make([]link, numSets*assoc)
	t.sets = make([]set, numSets)
	for s := range t.sets {
		st := &t.sets[s]
		st.head, st.tail, st.free = nilWay, nilWay, nilWay
		// Push ways in ascending order so fills take the highest free way
		// first, as the reference scan does: eager flushes, which walk
		// ways in order, then evict in the same order as it.
		for w := s * assoc; w < (s+1)*assoc; w++ {
			t.links[w].set = int32(s)
			t.pushFree(st, int32(w))
		}
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

func (t *TLB) now() uint64 {
	if t.Clock != nil {
		return t.Clock()
	}
	return t.tick
}

func (t *TLB) setIndex(asid memory.ASID, vpn memory.VPN) int {
	h := uint64(vpn) ^ (uint64(asid) << 13)
	return int(h % uint64(len(t.sets)))
}

// largeBase returns the 2MB-region base of vpn.
func largeBase(vpn memory.VPN) memory.VPN {
	return vpn &^ memory.VPN(memory.PagesPerLarge-1)
}

// live reports whether an entry survived every bulk invalidation since it
// was inserted.
func (t *TLB) live(e *Entry) bool {
	return t.ep.Live(uint16(e.ASID), e.born)
}

func (t *TLB) incCount(asid memory.ASID, large bool) {
	t.resident++
	c := t.perASID.Upsert(uint64(asid))
	c.n++
	if large {
		c.large++
	}
}

func (t *TLB) decCount(asid memory.ASID, large bool) {
	t.resident--
	c := t.perASID.Ref(uint64(asid))
	c.n--
	if large {
		c.large--
	}
	if c.n == 0 {
		t.perASID.Delete(uint64(asid))
	}
}

// bumpGen advances the generation counter, normalizing first when the next
// increment would wrap.
func (t *TLB) bumpGen() uint32 {
	if t.ep.AtMax() {
		t.normalize()
	}
	return t.ep.Bump()
}

// normalize physically drops dead entries and rewinds every generation to
// zero, making counter wraparound impossible to observe. Amortized cost is
// one structure walk per 2^32 bulk invalidations.
func (t *TLB) normalize() {
	if t.isInf {
		t.inf.Normalize()
		t.infLarge.Normalize()
	} else {
		for s := range t.sets {
			t.sweep(int32(s))
		}
		for i := range t.ways {
			t.ways[i].born = 0
		}
		t.idx.Normalize()
		t.idxLarge.Normalize()
	}
	t.ep.Reset()
}

// ---------------------------------------------------------------------------
// Finite-mode set structure: intrusive LRU list and free stack.

func (t *TLB) pushFree(s *set, w int32) {
	t.links[w].used = false
	t.links[w].next = s.free
	s.free = w
}

func (t *TLB) popFree(s *set) int32 {
	w := s.free
	s.free = t.links[w].next
	return w
}

// pushFront links w at the MRU end of its set's list.
func (t *TLB) pushFront(s *set, w int32) {
	l := &t.links[w]
	l.prev, l.next = nilWay, s.head
	if s.head != nilWay {
		t.links[s.head].prev = w
	} else {
		s.tail = w
	}
	s.head = w
}

func (t *TLB) unlink(s *set, w int32) {
	l := &t.links[w]
	if l.prev != nilWay {
		t.links[l.prev].next = l.next
	} else {
		s.head = l.next
	}
	if l.next != nilWay {
		t.links[l.next].prev = l.prev
	} else {
		s.tail = l.prev
	}
}

// touch makes w its set's most recently used way.
func (t *TLB) touch(w int32) {
	s := &t.sets[t.links[w].set]
	if s.head == w {
		return
	}
	t.unlink(s, w)
	t.pushFront(s, w)
}

// sweep moves every epoch-dead way of set si from its LRU list to its free
// stack. Their index entries are already invisible (the index shares the
// epoch), so only the ways move.
func (t *TLB) sweep(si int32) {
	s := &t.sets[si]
	for w := s.head; w != nilWay; {
		next := t.links[w].next
		if !t.live(&t.ways[w]) {
			t.unlink(s, w)
			t.pushFree(s, w)
		}
		w = next
	}
	s.swept = t.bulks
}

// find returns the way holding the live finite-mode entry for (asid, vpn,
// large), or nilWay. vpn must be the region base for large entries.
func (t *TLB) find(asid memory.ASID, vpn memory.VPN, large bool) int32 {
	m := &t.idx
	if large {
		m = &t.idxLarge
	}
	if w, ok := m.Get(infKey(asid, vpn)); ok {
		return w
	}
	return nilWay
}

// lookup is the shared body of Lookup and LookupSpan: n coalesced lookups
// of (asid, vpn), counted as n hits or misses.
func (t *TLB) lookup(asid memory.ASID, vpn memory.VPN, n uint64) (Entry, bool) {
	t.tick += n
	if t.isInf {
		// Infinite TLBs never evict by capacity, so LRU state is dead:
		// hits are a single flat-table probe with no write-back.
		if e, ok := t.inf.Get(infKey(asid, vpn)); ok {
			t.stats.Hits += n
			return e, true
		}
		if t.infLarge.Len() > 0 {
			if e, ok := t.infLarge.Get(infKey(asid, largeBase(vpn))); ok {
				t.stats.Hits += n
				return e, true
			}
		}
	} else {
		w := t.find(asid, vpn, false)
		if w == nilWay && t.large > 0 {
			w = t.find(asid, largeBase(vpn), true)
		}
		if w != nilWay {
			t.touch(w)
			t.stats.Hits += n
			return t.ways[w], true
		}
	}
	t.stats.Misses += n
	t.Trace.Emit("miss", uint64(vpn))
	return Entry{}, false
}

// Lookup searches for (asid, vpn), updating LRU state and hit/miss
// counters. Both 4KB entries and covering 2MB entries hit.
func (t *TLB) Lookup(asid memory.ASID, vpn memory.VPN) (Entry, bool) {
	return t.lookup(asid, vpn, 1)
}

// LookupSpan is the batched front-end's probe: one lookup of (asid, vpn)
// on behalf of n coalesced same-page lookups. Counters and the LRU order
// end exactly as n consecutive Lookup calls would leave them — the span
// counts as n hits or n misses and leaves the entry most-recently-used —
// but the TLB is probed once. A miss emits a single "miss" trace event for
// the whole span.
func (t *TLB) LookupSpan(asid memory.ASID, vpn memory.VPN, n uint64) (Entry, bool) {
	if n == 0 {
		return Entry{}, false
	}
	return t.lookup(asid, vpn, n)
}

// Probe reports whether a translation for (asid, vpn) is resident (4KB or
// covering 2MB entry) without disturbing LRU or counters.
func (t *TLB) Probe(asid memory.ASID, vpn memory.VPN) bool {
	if t.isInf {
		if _, ok := t.inf.Get(infKey(asid, vpn)); ok {
			return true
		}
		_, ok := t.infLarge.Get(infKey(asid, largeBase(vpn)))
		return ok
	}
	if t.find(asid, vpn, false) != nilWay {
		return true
	}
	return t.large > 0 && t.find(asid, largeBase(vpn), true) != nilWay
}

// Insert installs a 4KB translation, evicting the LRU entry of the set if
// needed. Re-inserting an existing (asid, vpn) refreshes it in place.
func (t *TLB) Insert(asid memory.ASID, vpn memory.VPN, ppn memory.PPN, perm memory.Perm) {
	t.insert(Entry{ASID: asid, VPN: vpn, PPN: ppn, Perm: perm})
}

// InsertLarge installs a 2MB translation for the region with the given
// base VPN/PPN. A single entry then covers 512 pages (the TLB-reach
// benefit of large pages).
func (t *TLB) InsertLarge(asid memory.ASID, baseVPN memory.VPN, basePPN memory.PPN, perm memory.Perm) {
	t.insert(Entry{ASID: asid, VPN: largeBase(baseVPN), PPN: basePPN, Perm: perm, Large: true})
}

func (t *TLB) insert(e Entry) {
	t.tick++
	t.stats.Inserts++
	e.insertedAt = t.now()
	e.born = t.ep.Gen()
	k := infKey(e.ASID, e.VPN)
	if t.isInf {
		m := &t.inf
		if e.Large {
			m = &t.infLarge
		}
		// Put reclaims a dead entry under the same key during its probe, so
		// a false return means the key was absent from the live view and the
		// residency count grows.
		if !m.Put(k, e) {
			t.incCount(e.ASID, e.Large)
		}
		return
	}
	m := &t.idx
	if e.Large {
		m = &t.idxLarge
	}
	if w, ok := m.Get(k); ok {
		// Refresh in place: new translation and generation, original
		// insertion time, most recently used.
		e.insertedAt = t.ways[w].insertedAt
		t.ways[w] = e
		m.Put(k, w)
		t.touch(w)
		return
	}
	si := int32(t.setIndex(e.ASID, e.VPN))
	s := &t.sets[si]
	if s.free == nilWay && s.swept != t.bulks {
		t.sweep(si)
	}
	var w int32
	if s.free != nilWay {
		w = t.popFree(s)
	} else {
		// No free or dead way: the LRU tail is live.
		w = s.tail
		t.unlink(s, w)
		if v := &t.ways[w]; v.ASID == e.ASID && v.Large == e.Large {
			// Same address space and page size: the residency counts
			// net out.
			t.evictNotify(*v)
			t.unindex(v)
			t.ways[w] = e
			t.pushFront(s, w)
			m.Put(k, w)
			return
		}
		t.evict(w)
	}
	t.ways[w] = e
	t.links[w].used = true
	t.pushFront(s, w)
	m.Put(k, w)
	t.incCount(e.ASID, e.Large)
	if e.Large {
		t.large++
	}
}

// evictNotify records an eviction and fires the lifetime hook. It does not
// touch residency state; callers remove the entry themselves.
func (t *TLB) evictNotify(e Entry) {
	t.stats.Evictions++
	if t.OnEvict != nil {
		t.OnEvict(e, t.now()-e.insertedAt)
	}
}

// evict retires the live entry of way w, already unlinked from its set's
// list, from the index and the residency counts.
func (t *TLB) evict(w int32) {
	e := &t.ways[w]
	t.evictNotify(*e)
	t.unindex(e)
	if e.Large {
		t.large--
	}
	t.decCount(e.ASID, e.Large)
}

// unindex removes a finite-mode entry's index key.
func (t *TLB) unindex(e *Entry) {
	if e.Large {
		t.idxLarge.Delete(infKey(e.ASID, e.VPN))
	} else {
		t.idx.Delete(infKey(e.ASID, e.VPN))
	}
}

// drop evicts the live entry of way w and frees the way.
func (t *TLB) drop(w int32) {
	s := &t.sets[t.links[w].set]
	t.unlink(s, w)
	t.evict(w)
	t.pushFree(s, w)
}

// dropInf removes an infinite-mode entry by key, reporting whether a live
// entry was evicted (a dead entry reclaimed by the probe was already
// accounted for when it died).
func (t *TLB) dropInf(m *flatmap.Map[Entry], k uint64) bool {
	e, ok := m.Delete(k)
	if !ok {
		return false
	}
	t.evictNotify(e)
	t.decCount(e.ASID, e.Large)
	return true
}

// InvalidatePage drops the entry translating (asid, vpn) if present —
// including a covering 2MB entry — returning whether one was dropped.
// Used for single-entry TLB shootdowns.
func (t *TLB) InvalidatePage(asid memory.ASID, vpn memory.VPN) bool {
	t.stats.Shootdowns++
	return t.dropPage(asid, vpn)
}

// InvalidatePages drops a batch of pages for one address space as a single
// shootdown message (one Shootdowns count regardless of batch length),
// returning the number of entries dropped.
func (t *TLB) InvalidatePages(asid memory.ASID, vpns []memory.VPN) int {
	t.stats.Shootdowns++
	n := 0
	for _, vpn := range vpns {
		if t.dropPage(asid, vpn) {
			n++
		}
	}
	return n
}

func (t *TLB) dropPage(asid memory.ASID, vpn memory.VPN) bool {
	hit := false
	if t.isInf {
		if t.dropInf(&t.inf, infKey(asid, vpn)) {
			hit = true
		}
		if t.dropInf(&t.infLarge, infKey(asid, largeBase(vpn))) {
			hit = true
		}
		return hit
	}
	if w := t.find(asid, vpn, false); w != nilWay {
		t.drop(w)
		hit = true
	}
	if t.large > 0 {
		if w := t.find(asid, largeBase(vpn), true); w != nilWay {
			t.drop(w)
			hit = true
		}
	}
	return hit
}

// sortedLiveKeys returns m's live keys in ascending packed order — which is
// (asid, vpn) order — so eager infinite-mode flushes evict deterministically
// instead of in table-slot order.
func sortedLiveKeys(m *flatmap.Map[Entry], asid memory.ASID, all bool) []uint64 {
	ks := m.AppendKeys(nil)
	if !all {
		kept := ks[:0]
		for _, k := range ks {
			if flatmap.KeyASID(k) == uint16(asid) {
				kept = append(kept, k)
			}
		}
		ks = kept
	}
	slices.Sort(ks)
	return ks
}

// eagerDrop evicts, in way order, every live finite-mode entry (all) or
// every live entry of asid.
func (t *TLB) eagerDrop(asid memory.ASID, all bool) {
	for w := range t.ways {
		e := &t.ways[w]
		if t.links[w].used && (all || e.ASID == asid) && t.live(e) {
			t.drop(int32(w))
		}
	}
}

// InvalidateAll flushes every entry (all-entry shootdown), returning how
// many live entries were dropped. Lazy unless Eager is set: one generation
// bump (or a table reset in infinite mode) retires everything at once.
func (t *TLB) InvalidateAll() int {
	t.stats.Shootdowns++
	n := t.resident
	if t.Eager {
		if t.isInf {
			for _, k := range sortedLiveKeys(&t.inf, 0, true) {
				t.dropInf(&t.inf, k)
			}
			for _, k := range sortedLiveKeys(&t.infLarge, 0, true) {
				t.dropInf(&t.infLarge, k)
			}
			return n
		}
		t.eagerDrop(0, true)
		return n
	}
	if t.isInf {
		t.inf.Reset()
		t.infLarge.Reset()
		t.ep.ClearDead()
	} else if n > 0 {
		t.ep.MarkDeadAll(t.bumpGen())
		t.bulks++
	}
	if n > 0 {
		t.stats.Evictions += uint64(n)
		t.resident = 0
		t.large = 0
		t.perASID.Reset()
	}
	return n
}

// InvalidateASID flushes all entries belonging to one address space,
// returning how many were dropped. Lazy unless Eager is set.
func (t *TLB) InvalidateASID(asid memory.ASID) int {
	t.stats.Shootdowns++
	n, nLarge := 0, 0
	if c := t.perASID.Ref(uint64(asid)); c != nil {
		n, nLarge = c.n, c.large
	}
	if t.Eager {
		if t.isInf {
			for _, k := range sortedLiveKeys(&t.inf, asid, false) {
				t.dropInf(&t.inf, k)
			}
			for _, k := range sortedLiveKeys(&t.infLarge, asid, false) {
				t.dropInf(&t.infLarge, k)
			}
			return n
		}
		t.eagerDrop(asid, false)
		return n
	}
	if n == 0 {
		return 0
	}
	t.stats.Evictions += uint64(n)
	t.resident -= n
	if !t.isInf {
		t.large -= nLarge
	}
	t.perASID.Delete(uint64(asid))
	t.ep.MarkDeadASID(uint16(asid), t.bumpGen())
	t.bulks++ // after bumpGen: a normalize there sweeps every set
	return n
}

// Len returns the number of live entries currently resident.
func (t *TLB) Len() int { return t.resident }

func (t *TLB) String() string {
	if t.cfg.Infinite() {
		return fmt.Sprintf("tlb{infinite, resident: %d}", t.Len())
	}
	return fmt.Sprintf("tlb{entries: %d, assoc: %d, resident: %d}", t.cfg.Entries, t.cfg.Assoc, t.Len())
}
