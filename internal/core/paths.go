package core

import (
	"vcache/internal/fbt"
	"vcache/internal/iommu"
	"vcache/internal/memory"
	"vcache/internal/noc"
	"vcache/internal/sim"
)

// Access implements gpu.MemoryPath, dispatching on the MMU design. addr is
// a coalesced 128B-line virtual address.
func (s *System) Access(cu int, addr memory.VAddr, write bool, done func()) {
	switch s.cfg.Kind {
	case IdealMMU:
		s.accessIdeal(cu, addr, write, done)
	case PhysicalBaseline:
		s.translatePerCU(s.acquire(cu, addr, write, done))
	case VirtualHierarchy:
		s.accessVirtual(cu, addr, write, done)
	case L1OnlyVirtual:
		r := s.acquire(cu, addr.Line(), write, done)
		s.cuEng(cu).ScheduleEvent(s.cfg.Lat.L1Hit, r, stVirtL1)
	default:
		panic("core: unknown MMU kind")
	}
}

// ---------------------------------------------------------------------------
// Request records. Every in-flight line access is one pooled request that
// carries the access through each stage of its design's path: it
// implements sim.Handler, with the stage as the event argument, and
// iommu.Receiver for per-CU TLB misses, so no stage allocates a closure.
//
// Ownership: a request is acquired from its CU's pool at Access, on the
// CU's partition. Loads complete on the CU (the data response travels
// back) and return to the pool when done fires. Stores complete on the
// backend, where the CU's pool must not be touched while partitions run
// concurrently, so they park on the pool's return list, which reclaim
// splices back into the pool at the next window barrier.

// request is one in-flight line access.
type request struct {
	s      *System
	cu     int
	va     memory.VAddr // the access address (a line; DSR-remapped in the VC design)
	write  bool
	done   func()
	addr   uint64       // L2 key: the physical line, or the virtual key (VC)
	pte    memory.PTE   // translation (per-CU TLB designs)
	perm   memory.Perm  // VC: permission the L1 fill installs
	filled bool         // VC: the line was installed under va
	res    iommu.Result // IOMMU response riding back to the CU
	lead   memory.VPN   // DSR remap update riding back to the CU
}

// request stages (event arguments). The first group runs on the CU's
// partition, the second on the backend.
const (
	stTranslate = iota // per-CU TLB lookup, Lat.PerCUTLB after issue
	stTLB2             // private second-level TLB lookup
	stTLBReturn        // IOMMU response back at the CU
	stPhysL1           // physically-addressed L1, Lat.L1Hit after translation
	stVirtL1           // virtually-addressed L1 (VC and L1-only designs)
	stL1Fill           // physical L2 data back at the CU: fill the L1
	stVCFill           // VC L2 response back at the CU: fill the L1 if installed
	stDone             // fault response back at the CU
	stRemap            // DSR remap update back at the CU

	stIOMMU  // per-CU TLB miss arrived at the IOMMU
	stL2     // request arrived at the L2
	stL2Bank // L2 bank access
)

// Handle advances r through its next stage (sim.Handler).
func (r *request) Handle(stage uint64) {
	s := r.s
	switch stage {
	case stTranslate:
		s.lookupPerCU(r)
	case stTLB2:
		s.lookupTLB2(r)
	case stTLBReturn:
		s.tlbReturn(r.cu, r.va.Page(), r.res)
	case stPhysL1:
		s.physL1(r)
	case stVirtL1:
		s.virtL1(r)
	case stL1Fill:
		if s.cfg.Kind == L1OnlyVirtual {
			s.fillL1(r.cu, r.va, r.pte.Perm)
		} else {
			s.l1s[r.cu].Fill(r.addr, physPerm, s.asid, false)
		}
		s.finish(r)
	case stVCFill:
		if r.filled {
			s.fillL1(r.cu, r.va, r.perm)
		}
		s.finish(r)
	case stDone:
		s.finish(r)
	case stRemap:
		s.remaps[r.cu].put(r.va.Page(), r.lead)
	case stIOMMU:
		s.io.TranslateTo(s.asid, r.va.Page(), r, 0)
	case stL2:
		s.l2Bank(r.addr, r, stL2Bank)
	case stL2Bank:
		if s.cfg.Kind == VirtualHierarchy {
			s.vcL2(r)
		} else {
			s.physL2(r)
		}
	}
}

// Translated carries a per-CU TLB miss's IOMMU response back to the CU
// (iommu.Receiver). Runs on the backend.
func (r *request) Translated(_ uint64, res iommu.Result) {
	r.res = res
	r.s.sendToCU(r.cu, noc.CUToIOMMU, r, stTLBReturn)
}

// reqPool recycles one CU's request records; made counts records ever
// allocated.
type reqPool struct {
	free []*request
	ret  []*request // completed on the backend; rejoin free at barriers
	made int
}

// acquire takes a request record from cu's pool. Runs on cu's partition.
func (s *System) acquire(cu int, va memory.VAddr, write bool, done func()) *request {
	p := &s.reqs[cu]
	var r *request
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		r = &request{s: s, cu: cu}
		p.made++
	}
	r.va, r.write, r.done = va, write, done
	return r
}

// finish completes r on its CU's partition and returns it to the pool.
func (s *System) finish(r *request) {
	done := r.done
	r.done = nil
	p := &s.reqs[r.cu]
	p.free = append(p.free, r)
	done()
}

// finishBackend completes r on the backend, parking it on its pool's
// return list until the next barrier.
func (s *System) finishBackend(r *request) {
	done := r.done
	r.done = nil
	p := &s.reqs[r.cu]
	p.ret = append(p.ret, r)
	s.returned = true
	done()
}

// reclaim splices records that completed on the backend back into their
// CUs' pools. Called at window barriers and at the end of a run, when
// every partition is quiescent.
func (s *System) reclaim() {
	if !s.returned {
		return
	}
	s.returned = false
	for i := range s.reqs {
		p := &s.reqs[i]
		p.free = append(p.free, p.ret...)
		p.ret = p.ret[:0]
	}
}

// fill is one outstanding line fill, started by the first requester of an
// L2 miss: the DRAM read — and, in the VC design, the IOMMU translation,
// FBT check and synonym replay — that ends in lineReady. Fill records are
// acquired and released on the backend only.
type fill struct {
	s     *System
	key   uint64       // L2 key the line's requesters are parked on
	req   *request     // first requester
	ppn   memory.PPN   // VC: translated frame
	perm  memory.Perm  // permission the line is installed with
	view  fbt.View     // synonym replay: the page's leading entry
	lline memory.VAddr // synonym replay: the line under the leading VPN
	lkey  uint64       // synonym replay: its L2 key
}

// fill stages (event arguments), all on the backend.
const (
	fPhysFill    = iota // DRAM read returned: install the physical line
	fVCTranslate        // VC miss arrived at the IOMMU
	fFBTCheck           // FBT latency elapsed: run the BT synonym check
	fVCFill             // DRAM read returned: install under the requested address
	fReplay             // synonym replay arrived back at the L2
	fReplayBank         // replay's L2 bank access
	fReplayHit          // replay hit: response back at the L2
	fReplayFill         // replay's DRAM read returned
)

// startFill begins the fill of key on behalf of its first requester r.
func (s *System) startFill(key uint64, r *request) *fill {
	var f *fill
	if n := len(s.fills); n > 0 {
		f = s.fills[n-1]
		s.fills = s.fills[:n-1]
	} else {
		f = &fill{s: s}
	}
	f.key, f.req = key, r
	return f
}

// fillDone recycles f and resolves the line's requesters.
func (s *System) fillDone(f *fill, perm memory.Perm, filled bool) {
	key := f.key
	f.req = nil
	s.fills = append(s.fills, f)
	s.lineReady(key, perm, filled)
}

// Handle advances f through its next stage (sim.Handler).
func (f *fill) Handle(stage uint64) {
	s := f.s
	switch stage {
	case fPhysFill:
		s.l2.Fill(f.key, physPerm, s.asid, false)
		s.sampleL2Pages()
		s.fillDone(f, physPerm, true)
	case fVCTranslate:
		s.io.TranslateTo(s.asid, f.req.va.Page(), f, 0)
	case fFBTCheck:
		s.fbtCheck(f)
	case fVCFill:
		if !s.l2.Probe(f.key) {
			s.l2.Fill(f.key, f.perm, s.asid, false)
			s.fbt.SetLine(f.ppn, f.req.va.LineIndex())
			s.sampleL2Pages()
		}
		s.fillDone(f, f.perm, true)
	case fReplay:
		s.l2Bank(f.lkey, f, fReplayBank)
	case fReplayBank:
		if f.view.BitVec&(1<<uint(f.lline.LineIndex())) != 0 {
			if _, hit := s.l2.Access(f.lkey, false); hit {
				s.net.SendEvent(noc.CUToL2, f, fReplayHit)
				return
			}
		}
		s.mem.AccessEvent(false, f, fReplayFill)
	case fReplayHit:
		s.fillDone(f, f.view.Perm, false)
	case fReplayFill:
		if !s.l2.Probe(f.lkey) {
			s.l2.Fill(f.lkey, f.view.Perm, f.view.ASID, false)
			s.fbt.SetLine(f.view.PPN, f.lline.LineIndex())
			s.sampleL2Pages()
		}
		s.fillDone(f, f.view.Perm, false)
	}
}

// Translated receives a VC miss's translation at the IOMMU
// (iommu.Receiver): faults resolve the line unfilled; otherwise the BT
// check follows after the FBT latency.
func (f *fill) Translated(_ uint64, res iommu.Result) {
	s := f.s
	if res.Fault {
		s.fault("page", &s.faults.PageFaults)
		s.fillDone(f, 0, false)
		return
	}
	if !res.PTE.Perm.Allows(f.req.write) {
		s.fault("perm", &s.faults.PermFaults)
		s.fillDone(f, 0, false)
		return
	}
	f.ppn, f.perm = res.PTE.PPN, res.PTE.Perm
	s.eng.ScheduleEvent(s.cfg.IOMMU.FBTLatency, f, fFBTCheck)
}

// ---------------------------------------------------------------------------
// Miss-merging infrastructure. Concurrent misses to the same cache line
// (or, for translations, the same page) merge into one outstanding request,
// as hardware MSHRs do; without this, the wide GPU front-end floods the
// IOMMU and DRAM with duplicates.

// joinLine parks r on the outstanding fill of key (a line address),
// reporting whether r is the first requester, which must start the fill;
// later requesters only count a merge. The fill must eventually call
// lineReady(key, ...) exactly once. Waiter lists come from a pool
// refilled by lineReady, so merging allocates nothing at steady state.
func (s *System) joinLine(key uint64, r *request) bool {
	list := s.l2Pending.Upsert(key)
	first := *list == nil // every outstanding fill holds a non-nil list
	if !first {
		s.lineMerges++
	} else if n := len(s.linePool); n > 0 {
		*list = s.linePool[n-1]
		s.linePool = s.linePool[:n-1]
	} else {
		*list = make([]*request, 0, 8)
	}
	*list = append(*list, r)
	return first
}

// lineReady resolves every request parked on key, in arrival order, and
// recycles their list. filled=false means the line was not installed under
// the requested address (fault, or synonym resolved under the leading
// address). Requests may re-enter joinLine; the list returns to the pool
// only after the last one ran, so reentrant fills never see it.
func (s *System) lineReady(key uint64, perm memory.Perm, filled bool) {
	list, _ := s.l2Pending.Delete(key)
	for _, r := range list {
		s.lineFilled(r, perm, filled)
	}
	clear(list)
	s.linePool = append(s.linePool, list[:0])
}

// lineFilled resumes one request parked on a line fill: stores complete
// at the L2 (dirtying the installed line); loads carry the data back to
// their CU's L1.
func (s *System) lineFilled(r *request, perm memory.Perm, filled bool) {
	vc := s.cfg.Kind == VirtualHierarchy
	if r.write {
		if !vc {
			s.l2.Access(r.addr, true) // write-allocate: install dirty
		} else if filled {
			s.l2.Access(r.addr, true) // dirty the installed line
			s.fbt.MarkWrittenVPN(s.asid, r.va.Page())
		}
		s.finishBackend(r)
		return
	}
	if vc {
		r.perm, r.filled = perm, filled
		s.sendToCU(r.cu, noc.CUToL2, r, stVCFill)
		return
	}
	s.sendToCU(r.cu, noc.CUToL2, r, stL1Fill)
}

// tlbWait is a request parked on an outstanding per-CU TLB miss: a
// per-line request, or chunk ci of a batch frame.
type tlbWait struct {
	r  *request
	f  *batchFrame
	ci int
}

// parkTLBMiss parks w on cu's outstanding translation of vpn, reporting
// whether w is the first requester, which must send the miss to the
// IOMMU; later requesters count a merge. Waiter lists recycle through the
// CU's pool.
func (s *System) parkTLBMiss(cu int, vpn memory.VPN, w tlbWait) bool {
	st := &s.cuStats[cu]
	list := s.tlbPending[cu].Upsert(uint64(vpn))
	first := *list == nil // every outstanding miss holds a non-nil list
	if !first {
		st.tlbMerges++
	} else if n := len(st.waitPool); n > 0 {
		*list = st.waitPool[n-1]
		st.waitPool = st.waitPool[:n-1]
	} else {
		*list = make([]tlbWait, 0, 8)
	}
	*list = append(*list, w)
	return first
}

// tlbReturn lands a translation back at cu: install it in the per-CU
// TLB(s), then resolve every request parked on the page, in arrival
// order. Per-line requests are checked against the first requester's
// store intent.
func (s *System) tlbReturn(cu int, vpn memory.VPN, res iommu.Result) {
	if !res.Fault {
		if res.PTE.Large {
			bv, bp := memory.LargeBase(vpn, res.PTE.PPN)
			s.cuTLBs[cu].InsertLarge(s.asid, bv, bp, res.PTE.Perm)
			if len(s.cuTLB2s) > 0 {
				s.cuTLB2s[cu].InsertLarge(s.asid, bv, bp, res.PTE.Perm)
			}
		} else {
			s.cuTLBs[cu].Insert(s.asid, vpn, res.PTE.PPN, res.PTE.Perm)
			if len(s.cuTLB2s) > 0 {
				s.cuTLB2s[cu].Insert(s.asid, vpn, res.PTE.PPN, res.PTE.Perm)
			}
		}
	}
	waiters, _ := s.tlbPending[cu].Delete(uint64(vpn))
	write := waiters[0].r != nil && waiters[0].r.write
	for _, w := range waiters {
		if w.r != nil {
			s.deliverTranslation(w.r, res, write)
			continue
		}
		ch := &w.f.chunks[w.ci]
		ch.pte, ch.fault = res.PTE, res.Fault
		s.resolveChunk(cu, w.f, w.ci)
	}
	clear(waiters)
	st := &s.cuStats[cu]
	st.waitPool = append(st.waitPool, waiters[:0])
}

// deliverTranslation resolves one per-line request with an IOMMU
// response, counting page and permission faults.
func (s *System) deliverTranslation(r *request, res iommu.Result, write bool) {
	if res.Fault {
		s.fault("page", &s.cuStats[r.cu].faults.PageFaults)
		s.finish(r)
		return
	}
	if !res.PTE.Perm.Allows(write) {
		s.fault("perm", &s.cuStats[r.cu].faults.PermFaults)
		s.finish(r)
		return
	}
	s.translated(r, res.PTE)
}

// translatePerCU runs the per-CU TLB Lat.PerCUTLB after issue, falling
// back to the IOMMU over the interconnect on a miss (both directions pay
// the CU-IOMMU latency). Concurrent misses from the same CU to the same
// page merge into one outstanding request.
func (s *System) translatePerCU(r *request) {
	s.cuEng(r.cu).ScheduleEvent(s.cfg.Lat.PerCUTLB, r, stTranslate)
}

func (s *System) lookupPerCU(r *request) {
	vpn := r.va.Page()
	if e, ok := s.cuTLBs[r.cu].Lookup(s.asid, vpn); ok {
		s.perCUHit(r, vpn, e.Frame(vpn), e.Perm, e.Large)
		return
	}
	// Optional private second-level TLB (§3.2 multi-level alternative).
	if len(s.cuTLB2s) > 0 {
		s.cuEng(r.cu).ScheduleEvent(s.cfg.PerCUTLB2Latency, r, stTLB2)
		return
	}
	s.missToIOMMU(r)
}

func (s *System) lookupTLB2(r *request) {
	vpn := r.va.Page()
	e, ok := s.cuTLB2s[r.cu].Lookup(s.asid, vpn)
	if !ok {
		s.missToIOMMU(r)
		return
	}
	if e.Perm.Allows(r.write) {
		if e.Large {
			s.cuTLBs[r.cu].InsertLarge(s.asid, e.VPN, e.PPN, e.Perm)
		} else {
			s.cuTLBs[r.cu].Insert(s.asid, vpn, e.PPN, e.Perm)
		}
	}
	s.perCUHit(r, vpn, e.Frame(vpn), e.Perm, e.Large)
}

// perCUHit resolves a request that hit in a private TLB.
func (s *System) perCUHit(r *request, vpn memory.VPN, ppn memory.PPN, perm memory.Perm, large bool) {
	if !perm.Allows(r.write) {
		s.fault("perm", &s.cuStats[r.cu].faults.PermFaults)
		s.finish(r)
		return
	}
	s.translated(r, memory.PTE{PPN: ppn, Perm: perm, Valid: true, Large: large})
}

// missToIOMMU handles a fully-private TLB miss: classify it for Figure 2,
// merge with an outstanding same-page request, or send it to the IOMMU.
func (s *System) missToIOMMU(r *request) {
	if s.cfg.ProbeResidency {
		s.classifyTLBMiss(r.cu, r.va)
	}
	if s.parkTLBMiss(r.cu, r.va.Page(), tlbWait{r: r}) {
		s.sendToBackend(r.cu, noc.CUToIOMMU, r, stIOMMU)
	}
}

// translated continues a translated per-CU-TLB-design request into the
// physical cache path: the physical L1 (baseline), or — the L1 already
// missed — straight to the physical L2 (L1-only virtual).
func (s *System) translated(r *request, pte memory.PTE) {
	r.pte = pte
	r.addr = uint64((pte.PPN.Base() + memory.PAddr(r.va.Offset())).Line())
	if s.cfg.Kind == L1OnlyVirtual {
		s.sendToBackend(r.cu, noc.CUToL2, r, stL2)
		return
	}
	s.cuEng(r.cu).ScheduleEvent(s.cfg.Lat.L1Hit, r, stPhysL1)
}

// classifyTLBMiss records where the missing translation's data currently
// resides (Figure 2's breakdown), using functional translation.
func (s *System) classifyTLBMiss(cu int, va memory.VAddr) {
	s.probe.TLBMisses++
	pa, _, ok := s.as.Translate(va)
	if !ok {
		s.probe.MemAccess++
		return
	}
	l1Addr, l2Addr := uint64(pa.Line()), uint64(pa.Line())
	if s.cfg.Kind == L1OnlyVirtual {
		l1Addr = s.vkey(va.Line())
	}
	switch {
	case s.l1s[cu].Probe(l1Addr):
		s.probe.L1Hit++
	case s.l2.Probe(l2Addr):
		s.probe.L2Hit++
	default:
		s.probe.MemAccess++
	}
}

// l2Bank serializes an access through the addressed L2 bank and fires
// h.Handle(arg) after the bank access latency.
func (s *System) l2Bank(addr uint64, h sim.Handler, arg uint64) {
	slot := s.l2banks[s.l2.Bank(addr)].Admit()
	s.eng.AtEvent(slot+s.cfg.Lat.L2Hit, h, arg)
}

// ---------------------------------------------------------------------------
// Physical caches (ideal MMU, physical baseline, and the L2 of the L1-only
// virtual design).

// physPerm is the permission physically-addressed caches install: the
// translation already checked the access.
const physPerm = memory.PermRead | memory.PermWrite

// accessIdeal translates for free and never misses.
func (s *System) accessIdeal(cu int, va memory.VAddr, write bool, done func()) {
	pa, perm, ok := s.as.Translate(va)
	if !ok {
		s.fault("page", &s.cuStats[cu].faults.PageFaults)
		done()
		return
	}
	if !perm.Allows(write) {
		s.fault("perm", &s.cuStats[cu].faults.PermFaults)
		done()
		return
	}
	r := s.acquire(cu, va, write, done)
	r.addr = uint64(pa.Line())
	s.cuEng(cu).ScheduleEvent(s.cfg.Lat.L1Hit, r, stPhysL1)
}

// physL1 runs a physically-addressed request through its CU's L1: stores
// update on hit and always write through; load misses go to the L2.
func (s *System) physL1(r *request) {
	l1 := s.l1s[r.cu]
	if r.write {
		l1.Access(r.addr, true) // update on hit; write-through, no allocate
	} else if _, hit := l1.Access(r.addr, false); hit {
		s.finish(r)
		return
	}
	s.sendToBackend(r.cu, noc.CUToL2, r, stL2)
}

// physL2 is the physical L2 stage, shared by every design with a physical
// L2: hits complete (stores) or return data to the CU (loads); misses
// merge on the line, and the first starts the DRAM fill (write-allocate
// for stores).
func (s *System) physL2(r *request) {
	if _, hit := s.l2.Access(r.addr, r.write); hit {
		if r.write {
			s.finishBackend(r)
		} else {
			s.sendToCU(r.cu, noc.CUToL2, r, stL1Fill)
		}
		return
	}
	if s.joinLine(r.addr, r) {
		s.mem.AccessEvent(false, s.startFill(r.addr, r), fPhysFill)
	}
}

// ---------------------------------------------------------------------------
// Virtual cache hierarchy (the proposal): no per-CU TLBs; L1 and L2 are
// virtually indexed and tagged; translation and the FBT synonym check
// happen only after an L2 miss.

func (s *System) accessVirtual(cu int, va memory.VAddr, write bool, done func()) {
	line := va.Line()
	// Dynamic synonym remapping (§4.3): redirect known synonym pages to
	// their leading page before the L1 lookup, in parallel with the
	// access (no latency cost).
	if s.cfg.DynamicSynonymRemap {
		if lead, ok := s.remaps[cu].get(line.Page()); ok {
			s.cuStats[cu].remapHits++
			line = lead.Base() + memory.VAddr(line.Offset())
		}
	}
	r := s.acquire(cu, line, write, done)
	s.cuEng(cu).ScheduleEvent(s.cfg.Lat.L1Hit, r, stVirtL1)
}

// virtL1 runs a request through its CU's virtual L1 (VC and L1-only
// designs). Load hits complete; stores update on hit and always write
// through. What continues goes to the virtual L2 (VC) or through the
// per-CU TLB to the physical L2 (L1-only).
func (s *System) virtL1(r *request) {
	l1 := s.l1s[r.cu]
	if r.write {
		if l, hit := l1.Access(s.vkey(r.va), true); hit && !l.Perm.Allows(true) {
			s.fault("perm", &s.cuStats[r.cu].faults.PermFaults)
			s.finish(r)
			return
		}
	} else if l, hit := l1.Access(s.vkey(r.va), false); hit {
		if !l.Perm.Allows(false) {
			s.fault("perm", &s.cuStats[r.cu].faults.PermFaults)
		}
		s.finish(r)
		return
	}
	if s.cfg.Kind == L1OnlyVirtual {
		s.translatePerCU(r)
		return
	}
	r.addr = s.vkey(r.va)
	s.sendToBackend(r.cu, noc.CUToL2, r, stL2)
}

// vcL2 is the virtual L2 stage. Load hits return data (or a permission
// fault) to the CU; store hits complete, marking the page written for
// read-write synonym detection (an L2 hit under this address means it is
// the page's leading VPN). Misses merge on the line; the first starts
// vcMissResolve's chain on a fill record.
func (s *System) vcL2(r *request) {
	if l, hit := s.l2.Access(r.addr, r.write); hit {
		switch {
		case r.write && !l.Perm.Allows(true):
			s.fault("perm", &s.faults.PermFaults)
			s.finishBackend(r)
		case r.write:
			s.fbt.MarkWrittenVPN(s.asid, r.va.Page())
			s.finishBackend(r)
		case !l.Perm.Allows(false):
			s.fault("perm", &s.faults.PermFaults)
			// done touches warp state: the fault response travels back
			// to the CU.
			s.sendToCU(r.cu, noc.CUToL2, r, stDone)
		default:
			r.perm, r.filled = l.Perm, true
			s.sendToCU(r.cu, noc.CUToL2, r, stVCFill)
		}
		return
	}
	if s.joinLine(r.addr, r) {
		// vcMissResolve: translate at the IOMMU (shared TLB -> optional
		// FBT second level -> PTW), run the BT synonym check, fetch the
		// data, and resolve all merged requests via lineReady.
		s.net.SendEvent(noc.L2ToIOMMU, s.startFill(r.addr, r), fVCTranslate)
	}
}

// fbtCheck runs the BT synonym check on a translated VC miss. A miss
// allocates the page under the requested VPN and fetches the line; a
// leading hit fetches it; a synonym replays under the leading address;
// a read-write synonym faults.
func (s *System) fbtCheck(f *fill) {
	r := f.req
	vpn := r.va.Page()
	outcome, view := s.fbt.Check(f.ppn, s.asid, vpn, r.write)
	switch outcome {
	case fbt.Miss:
		s.fbt.Allocate(f.ppn, s.asid, vpn, f.perm, r.write)
		s.mem.AccessEvent(false, f, fVCFill)
	case fbt.Leading:
		// Page tracked under this VPN but the line missed in the L2:
		// fetch it.
		f.perm = view.Perm
		s.mem.AccessEvent(false, f, fVCFill)
	case fbt.Synonym:
		s.synonymReplays++
		if s.cfg.DynamicSynonymRemap {
			// The remap table is front-end state; the update rides a
			// message back to the CU on the first requester's record.
			// Synonym outcomes only come from loads (stores to a
			// non-leading page are read-write faults), and a load's
			// record stays live until its data response, which this
			// message precedes.
			r.lead = view.LVPN
			s.sendToCU(r.cu, noc.CUToL2, r, stRemap)
		}
		s.replaySynonym(f, view)
	case fbt.RWFault:
		s.fault("rw-synonym", &s.faults.RWSynonym)
		s.fillDone(f, 0, false)
	}
}

// replaySynonym re-runs a read under the page's leading virtual address.
// Per §4.1, only addresses the bit vector says will hit are replayed into
// the L2; otherwise the directory/memory is accessed and the data is cached
// under the leading address. The original (non-leading) requesters complete
// with filled=false: the data lives only under the leading address.
func (s *System) replaySynonym(f *fill, view fbt.View) {
	f.view = view
	f.lline = view.LVPN.Base() + memory.VAddr(f.req.va.Offset())
	f.lkey = s.vkeyFor(f.lline, view.ASID)
	s.net.SendEvent(noc.L2ToIOMMU, f, fReplay) // response travels back to the L2
}

// fillL1 installs a line into a CU's L1 and maintains its invalidation
// filter.
func (s *System) fillL1(cu int, line memory.VAddr, perm memory.Perm) {
	s.trackL1Fill(cu, line)
	s.l1s[cu].Fill(s.vkey(line), perm, s.asid, false)
}
