package tlb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vcache/internal/memory"
)

// evictRec is one OnEvict observation.
type evictRec struct {
	e    Entry
	life uint64
}

func (r evictRec) String() string {
	return fmt.Sprintf("%d:%#x->%#x L=%v life=%d", r.e.ASID, uint64(r.e.VPN), uint64(r.e.PPN), r.e.Large, r.life)
}

func sortEvicts(rs []evictRec) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

// tlbGeometries are the finite shapes the differential test covers:
// fully associative, set associative, direct mapped, and one set per
// entry count that does not divide evenly.
var tlbGeometries = []Config{
	{Entries: 8},
	{Entries: 16, Assoc: 4},
	{Entries: 8, Assoc: 1},
	{Entries: 12, Assoc: 8},
}

// runTLBDifferential decodes ops from data and runs them against the
// production TLB and the scan-based reference model, failing at the first
// divergence in any return value, Stats, Len, or the multiset of OnEvict
// observations an operation produced.
func runTLBDifferential(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	hdr := data[0]
	data = data[1:]
	cfg := tlbGeometries[int(hdr)%len(tlbGeometries)]
	eager := hdr&0x10 != 0
	nearWrap := hdr&0x20 != 0

	got := New(cfg)
	want := newScanTLB(cfg)
	got.Eager, want.Eager = eager, eager
	if nearWrap {
		got.ep.SetGen(^uint32(0) - 3)
		want.ep.SetGen(^uint32(0) - 3)
	}
	var gotEv, wantEv []evictRec
	got.OnEvict = func(e Entry, life uint64) { gotEv = append(gotEv, evictRec{e, life}) }
	want.OnEvict = func(e Entry, life uint64) { wantEv = append(wantEv, evictRec{e, life}) }

	for step := 0; len(data) >= 3; step++ {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		asid := memory.ASID(1 + a%3)
		// A small page space keeps sets contended; large regions land on
		// the same few bases.
		vpn := memory.VPN(b) | memory.VPN(a>>4)<<8
		ppn := memory.PPN(uint64(vpn)*7 + uint64(op))
		perm := memory.Perm(1 + op%3)
		var desc string
		switch op % 11 {
		case 0, 1:
			desc = fmt.Sprintf("Lookup(%d,%#x)", asid, uint64(vpn))
			ge, gok := got.Lookup(asid, vpn)
			we, wok := want.Lookup(asid, vpn)
			if gok != wok || ge != we {
				t.Fatalf("step %d %s: got %+v,%v want %+v,%v", step, desc, ge, gok, we, wok)
			}
		case 2:
			n := uint64(op>>4) % 4
			desc = fmt.Sprintf("LookupSpan(%d,%#x,%d)", asid, uint64(vpn), n)
			ge, gok := got.LookupSpan(asid, vpn, n)
			we, wok := want.LookupSpan(asid, vpn, n)
			if gok != wok || ge != we {
				t.Fatalf("step %d %s: got %+v,%v want %+v,%v", step, desc, ge, gok, we, wok)
			}
		case 3, 4, 5:
			desc = fmt.Sprintf("Insert(%d,%#x)", asid, uint64(vpn))
			got.Insert(asid, vpn, ppn, perm)
			want.Insert(asid, vpn, ppn, perm)
		case 6:
			desc = fmt.Sprintf("InsertLarge(%d,%#x)", asid, uint64(vpn))
			got.InsertLarge(asid, vpn, ppn, perm)
			want.InsertLarge(asid, vpn, ppn, perm)
		case 7:
			desc = fmt.Sprintf("InvalidatePage(%d,%#x)", asid, uint64(vpn))
			if g, w := got.InvalidatePage(asid, vpn), want.InvalidatePage(asid, vpn); g != w {
				t.Fatalf("step %d %s: got %v want %v", step, desc, g, w)
			}
		case 8:
			vpns := []memory.VPN{vpn, vpn + 1, vpn + memory.PagesPerLarge}
			desc = fmt.Sprintf("InvalidatePages(%d,%v)", asid, vpns)
			if g, w := got.InvalidatePages(asid, vpns), want.InvalidatePages(asid, vpns); g != w {
				t.Fatalf("step %d %s: got %d want %d", step, desc, g, w)
			}
		case 9:
			desc = fmt.Sprintf("InvalidateASID(%d)", asid)
			if g, w := got.InvalidateASID(asid), want.InvalidateASID(asid); g != w {
				t.Fatalf("step %d %s: got %d want %d", step, desc, g, w)
			}
		case 10:
			if a%4 != 0 { // full flushes rarer than the rest
				desc = fmt.Sprintf("Probe(%d,%#x)", asid, uint64(vpn))
				if g, w := got.Probe(asid, vpn), want.Probe(asid, vpn); g != w {
					t.Fatalf("step %d %s: got %v want %v", step, desc, g, w)
				}
				break
			}
			desc = "InvalidateAll"
			if g, w := got.InvalidateAll(), want.InvalidateAll(); g != w {
				t.Fatalf("step %d %s: got %d want %d", step, desc, g, w)
			}
		}
		if g, w := got.Stats(), want.Stats(); g != w {
			t.Fatalf("step %d %s: stats\n got  %+v\n want %+v", step, desc, g, w)
		}
		if g, w := got.Len(), want.Len(); g != w {
			t.Fatalf("step %d %s: Len got %d want %d", step, desc, g, w)
		}
		if g, w := sortEvicts(gotEv), sortEvicts(wantEv); !slices.Equal(g, w) {
			t.Fatalf("step %d %s: OnEvict\n got  %v\n want %v", step, desc, g, w)
		}
		gotEv, wantEv = gotEv[:0], wantEv[:0]
	}
}

// FuzzTLBDifferential checks the index/LRU TLB against the scan-based
// reference model over arbitrary operation sequences, every finite
// geometry, lazy and eager bulk invalidation, and generation counters
// parked just below the wrap point.
func FuzzTLBDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for hdr := 0; hdr < 64; hdr++ {
		ops := make([]byte, 1+3*400)
		rng.Read(ops)
		ops[0] = byte(hdr)
		f.Add(ops)
	}
	f.Fuzz(runTLBDifferential)
}
