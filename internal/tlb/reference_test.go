package tlb

import (
	"vcache/internal/flatmap"
	"vcache/internal/memory"
)

// scanTLB is the reference model of a finite TLB: the scan-based
// implementation the index/LRU structure replaced. Every set is a slice of
// ways searched linearly; LRU is a per-entry tick compared on replacement;
// epoch-dead ways count as free and are reclaimed on touch. It is kept
// only as the oracle for FuzzTLBDifferential, which requires the
// production TLB to agree with it on every observable result.
type scanTLB struct {
	sets  [][]scanEntry
	large int
	tick  uint64
	stats Stats

	ep       flatmap.Epoch
	resident int
	perASID  flatmap.Map[asidCnt]

	Eager   bool
	OnEvict func(e Entry, lifetime uint64)
}

type scanEntry struct {
	Entry
	valid bool
	lru   uint64
}

func newScanTLB(cfg Config) *scanTLB {
	assoc := cfg.Assoc
	if assoc <= 0 || assoc > cfg.Entries {
		assoc = cfg.Entries
	}
	numSets := cfg.Entries / assoc
	if numSets < 1 {
		numSets = 1
	}
	t := &scanTLB{sets: make([][]scanEntry, numSets)}
	for i := range t.sets {
		t.sets[i] = make([]scanEntry, assoc)
	}
	return t
}

func (t *scanTLB) setIndex(asid memory.ASID, vpn memory.VPN) int {
	h := uint64(vpn) ^ (uint64(asid) << 13)
	return int(h % uint64(len(t.sets)))
}

func (t *scanTLB) live(e *scanEntry) bool { return t.ep.Live(uint16(e.ASID), e.born) }

func (t *scanTLB) incCount(asid memory.ASID, large bool) {
	t.resident++
	c := t.perASID.Upsert(uint64(asid))
	c.n++
	if large {
		c.large++
	}
}

func (t *scanTLB) decCount(asid memory.ASID, large bool) {
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

func (t *scanTLB) bumpGen() uint32 {
	if t.ep.AtMax() {
		for _, set := range t.sets {
			for i := range set {
				if !set[i].valid {
					continue
				}
				if !t.live(&set[i]) {
					set[i].valid = false
				} else {
					set[i].born = 0
				}
			}
		}
		t.ep.Reset()
	}
	return t.ep.Bump()
}

func (t *scanTLB) find(asid memory.ASID, vpn memory.VPN, large bool) *scanEntry {
	set := t.sets[t.setIndex(asid, vpn)]
	for i := range set {
		if set[i].valid && set[i].ASID == asid && set[i].VPN == vpn && set[i].Large == large {
			if !t.live(&set[i]) {
				set[i].valid = false
				continue
			}
			return &set[i]
		}
	}
	return nil
}

func (t *scanTLB) LookupSpan(asid memory.ASID, vpn memory.VPN, n uint64) (Entry, bool) {
	if n == 0 {
		return Entry{}, false
	}
	t.tick += n
	if e := t.find(asid, vpn, false); e != nil {
		e.lru = t.tick
		t.stats.Hits += n
		return e.Entry, true
	}
	if t.large > 0 {
		if e := t.find(asid, largeBase(vpn), true); e != nil {
			e.lru = t.tick
			t.stats.Hits += n
			return e.Entry, true
		}
	}
	t.stats.Misses += n
	return Entry{}, false
}

func (t *scanTLB) Lookup(asid memory.ASID, vpn memory.VPN) (Entry, bool) {
	return t.LookupSpan(asid, vpn, 1)
}

func (t *scanTLB) Probe(asid memory.ASID, vpn memory.VPN) bool {
	if t.find(asid, vpn, false) != nil {
		return true
	}
	return t.large > 0 && t.find(asid, largeBase(vpn), true) != nil
}

func (t *scanTLB) Insert(asid memory.ASID, vpn memory.VPN, ppn memory.PPN, perm memory.Perm) {
	t.insert(Entry{ASID: asid, VPN: vpn, PPN: ppn, Perm: perm})
}

func (t *scanTLB) InsertLarge(asid memory.ASID, baseVPN memory.VPN, basePPN memory.PPN, perm memory.Perm) {
	t.insert(Entry{ASID: asid, VPN: largeBase(baseVPN), PPN: basePPN, Perm: perm, Large: true})
}

func (t *scanTLB) insert(e Entry) {
	t.tick++
	t.stats.Inserts++
	e.insertedAt = t.tick
	e.born = t.ep.Gen()
	se := scanEntry{Entry: e, valid: true, lru: t.tick}
	set := t.sets[t.setIndex(e.ASID, e.VPN)]
	victim, vfree := 0, false
	for i := range set {
		li := &set[i]
		free := !li.valid || !t.live(li)
		if !free && li.ASID == e.ASID && li.VPN == e.VPN && li.Large == e.Large {
			keep := li.insertedAt
			*li = se
			li.insertedAt = keep
			return
		}
		if free {
			victim, vfree = i, true
		} else if !vfree && li.lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && t.live(&set[victim]) {
		t.evict(&set[victim])
	}
	set[victim] = se
	t.incCount(e.ASID, e.Large)
	if e.Large {
		t.large++
	}
}

func (t *scanTLB) evict(e *scanEntry) {
	t.stats.Evictions++
	if t.OnEvict != nil {
		t.OnEvict(e.Entry, t.tick-e.insertedAt)
	}
	e.valid = false
	if e.Large {
		t.large--
	}
	t.decCount(e.ASID, e.Large)
}

func (t *scanTLB) dropPage(asid memory.ASID, vpn memory.VPN) bool {
	hit := false
	if e := t.find(asid, vpn, false); e != nil {
		t.evict(e)
		hit = true
	}
	if t.large > 0 {
		if e := t.find(asid, largeBase(vpn), true); e != nil {
			t.evict(e)
			hit = true
		}
	}
	return hit
}

func (t *scanTLB) InvalidatePage(asid memory.ASID, vpn memory.VPN) bool {
	t.stats.Shootdowns++
	return t.dropPage(asid, vpn)
}

func (t *scanTLB) InvalidatePages(asid memory.ASID, vpns []memory.VPN) int {
	t.stats.Shootdowns++
	n := 0
	for _, vpn := range vpns {
		if t.dropPage(asid, vpn) {
			n++
		}
	}
	return n
}

func (t *scanTLB) InvalidateAll() int {
	t.stats.Shootdowns++
	n := t.resident
	if t.Eager {
		for _, set := range t.sets {
			for i := range set {
				if set[i].valid && t.live(&set[i]) {
					t.evict(&set[i])
				}
			}
		}
		return n
	}
	if n > 0 {
		t.ep.MarkDeadAll(t.bumpGen())
		t.stats.Evictions += uint64(n)
		t.resident = 0
		t.large = 0
		t.perASID.Reset()
	}
	return n
}

func (t *scanTLB) InvalidateASID(asid memory.ASID) int {
	t.stats.Shootdowns++
	n, nLarge := 0, 0
	if c := t.perASID.Ref(uint64(asid)); c != nil {
		n, nLarge = c.n, c.large
	}
	if t.Eager {
		for _, set := range t.sets {
			for i := range set {
				if set[i].valid && set[i].ASID == asid && t.live(&set[i]) {
					t.evict(&set[i])
				}
			}
		}
		return n
	}
	if n == 0 {
		return 0
	}
	t.stats.Evictions += uint64(n)
	t.resident -= n
	t.large -= nLarge
	t.perASID.Delete(uint64(asid))
	t.ep.MarkDeadASID(uint16(asid), t.bumpGen())
	return n
}

func (t *scanTLB) Len() int { return t.resident }

func (t *scanTLB) Stats() Stats { return t.stats }
