// Package rt is the process runtime: it loads a linked image into a fresh
// address space (applying the execute-only text mapping), runs the BTDP
// startup constructor (Section 5.2), services the VM's runtime calls
// (malloc/free/output/exit), classifies faults as booby-trap detonations,
// and implements the CFI-directive-driven stack unwinder (Section 7.2.4).
package rt

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/heap"
	"r2c/internal/image"
	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/rng"
	"r2c/internal/telemetry"
)

// TrapKind classifies a detonated booby trap.
type TrapKind int

const (
	// TrapNone: the fault was not a booby trap (a plain crash).
	TrapNone TrapKind = iota
	// TrapBTRA: control flow reached a booby-trap function — an attacker
	// followed or corrupted a return address into a BTRA (Section 4.1).
	TrapBTRA
	// TrapBTDP: a guard page was dereferenced — an attacker followed a
	// booby-trapped data pointer (Section 4.2).
	TrapBTDP
	// TrapProlog: execution hit a prolog trap — an attacker miscomputed a
	// gadget address from a leaked function pointer (Section 4.3).
	TrapProlog
	// TrapBTRACheck: a post-return BTRA consistency check failed — an
	// attacker corrupted return-address candidates (the Section 7.3
	// hardening against the crash side channel).
	TrapBTRACheck
	// TrapShadowStack: a RET consumed a return address that does not match
	// the protected shadow copy — backward-edge CFI enforcement
	// (Section 8.2).
	TrapShadowStack
)

func (k TrapKind) String() string {
	switch k {
	case TrapNone:
		return "none"
	case TrapBTRA:
		return "btra"
	case TrapBTDP:
		return "btdp"
	case TrapProlog:
		return "prolog-trap"
	case TrapBTRACheck:
		return "btra-check"
	case TrapShadowStack:
		return "shadow-stack"
	}
	return "?"
}

// TrapEvent records one booby-trap detonation — the reactive signal a
// monitoring system would act on.
type TrapEvent struct {
	Kind TrapKind
	PC   uint64
	Addr uint64 // faulting data address for TrapBTDP
}

// Process is a loaded program instance.
type Process struct {
	Img   *image.Image
	Cfg   *defense.Config
	Space *mem.Space
	Heap  *heap.Allocator

	// BTDP runtime state (ground truth for tests and the attack oracle).
	GuardPages []uint64 // page-aligned addresses of kept guard pages
	BTDPArray  uint64   // address of the pointer array (heap or data)
	BTDPValues []uint64 // pointer values in the array
	DecoyVals  []uint64 // decoy values placed in the data section

	// Output collects SysOutput words — the observable behaviour that
	// differential tests compare across defense configurations.
	Output []uint64
	// ExitStatus is set by SysExit.
	ExitStatus uint64

	// Obs receives structured trap/fault/constructor events and counters.
	// Nil disables telemetry; every use is nil-safe.
	Obs *telemetry.Observer

	// Flight is the control-flow flight recorder the VM dispatch loops feed
	// (calls, returns, jumps, loads near guard pages). Nil — the default —
	// disables recording; it is attached when the observer configures a
	// nonzero FlightCap, and armed with the BTDP guard-page geometry so
	// near-guard loads are captured. On a trap the ring is snapshotted into
	// an incident record.
	Flight *telemetry.FlightRecorder

	// InitialRSP is the stack pointer at entry.
	InitialRSP uint64

	// trapTotal counts every detonation. The events themselves live on the
	// flight record, the trap event stream and the incident record.
	trapTotal uint64

	// lastFaultPC remembers the PC of the most recent NoteFault, so
	// incident records can attribute a fault to its faulting instruction
	// (vm.Result carries only the mem.Fault, not the PC).
	lastFaultPC uint64

	rnd *rng.RNG
}

// trapEvidenceCap is how many detonations a process's evidence covers: each one
// past it counts in DroppedTraps and rt.traps.dropped. Incident records seal
// that count, so changing the cap moves every sealed ID.
const trapEvidenceCap = 256

// Snapshot is a loaded process frozen right after load-time
// initialization: segments mapped, data initialized, heap set up and the
// BTDP constructor run. It is not a Process, so no machine can run it;
// Fork makes runnable copies. A snapshot is never modified after Load, so
// forks may be made and run on separate goroutines.
type Snapshot struct {
	p *Process

	// forks caches the rt.process.forks handle of the registry the last
	// Fork counted into, so a fork per request looks nothing up by name.
	forks atomic.Pointer[forkCounter]
}

type forkCounter struct {
	reg *telemetry.Registry
	c   *telemetry.Counter
}

// Load maps the image into a fresh address space, runs load-time
// initialization under obs (nil disables telemetry) and freezes the result.
// Everything it does is deterministic in (img, seed), so every Fork of the
// snapshot is bit-identical to a process loaded afresh from the same
// arguments.
func Load(img *image.Image, seed uint64, obs *telemetry.Observer) (*Snapshot, error) {
	p, err := load(img, seed, obs)
	if err != nil {
		return nil, err
	}
	p.Space.Freeze()
	p.Obs = nil
	p.GuardPages = slices.Clip(p.GuardPages)
	p.BTDPValues = slices.Clip(p.BTDPValues)
	p.DecoyVals = slices.Clip(p.DecoyVals)
	return &Snapshot{p: p}, nil
}

// Fork returns a runnable process in the snapshot's post-load state, with
// obs attached for its traps, faults and flight record. Its address space
// shares the snapshot's pages copy-on-write (see mem.Space.Fork); the heap
// allocator's metadata and every RNG are copied, so the fork allocates
// exactly where a freshly loaded process would. The BTDP ground-truth
// slices are shared read-only.
func (s *Snapshot) Fork(obs *telemetry.Observer) *Process {
	sp := s.p.Space.Fork()
	rnd := *s.p.rnd
	p := &Process{
		Img: s.p.Img, Cfg: s.p.Cfg, Space: sp, Heap: s.p.Heap.Fork(sp),
		GuardPages: s.p.GuardPages, BTDPArray: s.p.BTDPArray,
		BTDPValues: s.p.BTDPValues, DecoyVals: s.p.DecoyVals,
		Obs: obs, InitialRSP: s.p.InitialRSP, rnd: &rnd,
	}
	// The flight recorder is per fork; arming it with the final guard-page
	// layout lets its guard-zone filter capture near-guard loads. Capacity
	// 0 leaves Flight nil and the VM hooks dormant.
	if cap := obs.FlightRecorderCap(); cap > 0 {
		p.Flight = telemetry.NewFlightRecorder(cap)
		p.Flight.ArmGuards(p.GuardPages, mem.PageSize)
	}
	if reg := obs.Reg(); reg != nil {
		fc := s.forks.Load()
		if fc == nil || fc.reg != reg {
			fc = &forkCounter{reg: reg, c: reg.Counter("rt.process.forks")}
			s.forks.Store(fc)
		}
		fc.c.Inc()
	}
	return p
}

// Release hands the memory only this fork owns — its private pages, page
// table leaves and heap metadata — to later forks, and empties its address
// space. Call it when the process is finished: nothing, including a machine
// that ran it, may use p afterwards. Results already read from it (Output,
// traps) stay valid.
func (p *Process) Release() {
	p.Space.Release()
	p.Heap.Release()
}

// load builds the process Load freezes: the whole deterministic loader.
func load(img *image.Image, seed uint64, obs *telemetry.Observer) (*Process, error) {
	cfg := &img.Prog.Config
	sp := mem.NewSpace()

	textPerm := mem.PermRX
	if cfg.XOnlyText {
		textPerm = mem.PermXOnly
	}
	if err := sp.Map(mem.AlignDown(img.TextBase, mem.PageSize), mem.AlignUp(img.TextEnd, mem.PageSize)-mem.AlignDown(img.TextBase, mem.PageSize), textPerm); err != nil {
		return nil, fmt.Errorf("rt: map text: %w", err)
	}
	if err := sp.Map(img.DataBase, img.DataEnd-img.DataBase, mem.PermRW); err != nil {
		return nil, fmt.Errorf("rt: map data: %w", err)
	}
	if err := sp.Map(img.StackLow, img.StackHi-img.StackLow, mem.PermRW); err != nil {
		return nil, fmt.Errorf("rt: map stack: %w", err)
	}

	r := rng.New(seed)
	h, err := heap.New(sp, img.HeapBase, img.HeapEnd, r.Split())
	if err != nil {
		return nil, fmt.Errorf("rt: heap: %w", err)
	}

	p := &Process{Img: img, Cfg: cfg, Space: sp, Heap: h, Obs: obs, rnd: r}

	// Write the initialized data section.
	for addr, w := range img.DataInit {
		if err := sp.Write64(addr, w); err != nil {
			return nil, fmt.Errorf("rt: data init at %#x: %w", addr, err)
		}
	}

	// The stack pointer starts 16-byte aligned below the stack top, per
	// the machine convention (body rsp % 16 == 0).
	p.InitialRSP = mem.AlignDown(img.StackHi-64, 16)

	if cfg.BTDP {
		if err := p.runBTDPConstructor(); err != nil {
			return nil, fmt.Errorf("rt: btdp constructor: %w", err)
		}
	}
	return p, nil
}

// runBTDPConstructor performs the startup sequence of Section 5.2: allocate
// a batch of page-aligned, page-sized heap chunks; free all but a random
// subset, leaving the survivors scattered across the heap; revoke their
// read permission; and publish pointers to random offsets inside them.
// In the hardened layout (Figure 5, right) the pointer array itself lives
// on the heap and the data section holds only a pointer to it plus decoy
// BTDPs; in the naive ablation the array sits in the data section.
func (p *Process) runBTDPConstructor() error {
	cfg := p.Cfg
	if cfg.BTDPGuardPages <= 0 || cfg.BTDPScatterAllocs < cfg.BTDPGuardPages {
		return fmt.Errorf("invalid BTDP page parameters (%d of %d)", cfg.BTDPGuardPages, cfg.BTDPScatterAllocs)
	}

	pages := make([]uint64, cfg.BTDPScatterAllocs)
	for i := range pages {
		a, err := p.Heap.AllocAligned(mem.PageSize, mem.PageSize)
		if err != nil {
			return err
		}
		pages[i] = a
	}
	keepIdx := p.rnd.Perm(len(pages))[:cfg.BTDPGuardPages]
	kept := make([]bool, len(pages))
	p.GuardPages = make([]uint64, len(keepIdx))
	for j, i := range keepIdx {
		kept[i] = true
		p.GuardPages[j] = pages[i]
	}
	freed := pages[:0]
	for i, a := range pages {
		if !kept[i] {
			freed = append(freed, a)
		}
	}
	if err := p.Heap.FreeAll(freed); err != nil {
		return err
	}

	// Pointer array: random offsets inside the guard pages. Offsets are
	// word-aligned so the values look like ordinary object pointers.
	p.BTDPValues = make([]uint64, cfg.BTDPArrayLen)
	for i := range p.BTDPValues {
		page := p.GuardPages[p.rnd.Intn(len(p.GuardPages))]
		p.BTDPValues[i] = page + uint64(p.rnd.Intn(mem.PageSize/8))*8
	}

	if cfg.BTDPNaiveDataArray {
		ds, ok := p.Img.DataSyms[codegen.SymBTDPArray]
		if !ok {
			return errors.New("naive BTDP array symbol missing")
		}
		p.BTDPArray = ds.Addr
		for i, v := range p.BTDPValues {
			if err := p.Space.Write64(ds.Addr+uint64(i)*8, v); err != nil {
				return err
			}
		}
	} else {
		arr, err := p.Heap.Alloc(uint64(cfg.BTDPArrayLen) * 8)
		if err != nil {
			return err
		}
		p.BTDPArray = arr
		for i, v := range p.BTDPValues {
			if err := p.Space.Write64(arr+uint64(i)*8, v); err != nil {
				return err
			}
		}
		ds, ok := p.Img.DataSyms[codegen.SymBTDPArrayPtr]
		if !ok {
			return errors.New("BTDP array pointer symbol missing")
		}
		if err := p.Space.Write64(ds.Addr, arr); err != nil {
			return err
		}
		// Decoy BTDPs in the data section: guard-page pointers that never
		// occur in the array (and therefore never on the stack), so
		// data-section/stack intersection cannot identify BTDPs.
		inArray := map[uint64]bool{}
		for _, v := range p.BTDPValues {
			inArray[v] = true
		}
		for i := 0; i < cfg.BTDPDataDecoys; i++ {
			name := codegen.SymBTDPDecoyPrefix + strconv.Itoa(i)
			ds, ok := p.Img.DataSyms[name]
			if !ok {
				return fmt.Errorf("decoy symbol %s missing", name)
			}
			var v uint64
			for {
				page := p.GuardPages[p.rnd.Intn(len(p.GuardPages))]
				v = page + uint64(p.rnd.Intn(mem.PageSize/8))*8
				if !inArray[v] {
					break
				}
			}
			p.DecoyVals = append(p.DecoyVals, v)
			if err := p.Space.Write64(ds.Addr, v); err != nil {
				return err
			}
		}
	}

	// Finally, revoke access: any dereference now faults immediately.
	for _, pg := range p.GuardPages {
		if err := p.Heap.Protect(pg, mem.PermNone); err != nil {
			return err
		}
	}

	p.Obs.Counter("rt.btdp.constructors").Inc()
	p.Obs.Gauge("rt.btdp.guard_pages").Set(float64(len(p.GuardPages)))
	p.Obs.Gauge("rt.btdp.array_len").Set(float64(len(p.BTDPValues)))
	p.Obs.Gauge("rt.btdp.data_decoys").Set(float64(len(p.DecoyVals)))
	p.Obs.Emit("btdp-init", map[string]any{
		"guard_pages": len(p.GuardPages),
		"array_addr":  p.BTDPArray,
		"array_len":   len(p.BTDPValues),
		"decoys":      len(p.DecoyVals),
		"naive_array": cfg.BTDPNaiveDataArray,
	})
	return nil
}

// IsGuardAddr reports whether addr falls inside a BTDP guard page.
func (p *Process) IsGuardAddr(addr uint64) bool {
	page := mem.AlignDown(addr, mem.PageSize)
	for _, g := range p.GuardPages {
		if g == page {
			return true
		}
	}
	return false
}

// ClassifyFault interprets a memory fault or trap location as a booby-trap
// signal. A monitoring system (or the program's own handler) would use this
// to respond to an ongoing attack (Section 4.2).
func (p *Process) ClassifyFault(pc uint64, f *mem.Fault) TrapKind {
	if f != nil && p.IsGuardAddr(f.Addr) {
		return TrapBTDP
	}
	if p.Img.IsBoobyTrapAddr(pc) {
		return TrapBTRA
	}
	if pf := p.Img.FuncAt(pc); pf != nil && !pf.F.BoobyTrap {
		if i := pf.InstrIndexAt(pc); i >= 0 && pf.F.Instrs[i].Kind == isa.KTrap {
			// A BTRA-tagged trap is a failed consistency check (Section
			// 7.3); otherwise it is a prolog trap.
			if pf.F.Instrs[i].BTRA {
				return TrapBTRACheck
			}
			return TrapProlog
		}
	}
	return TrapNone
}

// RecordTrap records a booby-trap detonation: it bumps the total count,
// puts the event on the flight record and streams it to the telemetry
// observer. A detonation past trapEvidenceCap also counts as dropped evidence.
func (p *Process) RecordTrap(ev TrapEvent) {
	p.trapTotal++
	if p.trapTotal > trapEvidenceCap {
		p.Obs.Counter("rt.traps.dropped").Inc()
	}
	// The detonation itself goes on the flight record. Instr stays 0: the
	// fast path calls stopFault before its block rollback, so a live
	// instruction count here would differ between dispatch engines.
	p.Flight.Record(telemetry.FlightTrap, ev.PC, ev.Addr, 0)
	p.Obs.Counter("rt.traps", "kind", ev.Kind.String()).Inc()
	if p.Obs != nil && p.Obs.Tracer != nil {
		// Resolve defense provenance only when an event sink is listening:
		// the lookup is cheap but off the uninstrumented hot path.
		pv := p.TrapProvenance(ev)
		attrs := map[string]any{
			"trap": ev.Kind.String(), "pc": ev.PC, "addr": ev.Addr,
			"func": pv.Func, "origin": pv.String(),
		}
		if ev.Kind == TrapBTDP {
			attrs["source"] = pv.Source
			attrs["guard_page"] = pv.PageIndex
		}
		if len(pv.Origins) > 0 {
			o := pv.Origins[0]
			attrs["planted_by"] = o.Caller
			attrs["call_site"] = o.CallSiteID
			attrs["slot"] = o.Slot
			attrs["pre"] = o.Pre
		}
		p.Obs.Emit("trap", attrs)
	}
}

// TrapCount returns the total number of detonations ever recorded.
func (p *Process) TrapCount() uint64 { return p.trapTotal }

// DroppedTraps returns how many detonations fell past trapEvidenceCap (also
// exported as the rt.traps.dropped counter).
func (p *Process) DroppedTraps() uint64 { return p.trapTotal - min(p.trapTotal, trapEvidenceCap) }

// LastFaultPC returns the PC of the most recent fault NoteFault saw, or 0
// when no fault occurred.
func (p *Process) LastFaultPC() uint64 { return p.lastFaultPC }

// NoteFault streams a memory-fault event; the VM calls it for every fault
// that stops execution, before booby-trap classification.
func (p *Process) NoteFault(pc uint64, f *mem.Fault) {
	if f == nil {
		return
	}
	p.lastFaultPC = pc
	// Instr stays 0 for dispatch-engine parity; see RecordTrap.
	p.Flight.Record(telemetry.FlightFault, pc, f.Addr, 0)
	p.Obs.Counter("rt.faults", "access", f.Access.String()).Inc()
	p.Obs.Emit("fault", map[string]any{
		"pc": pc, "addr": f.Addr, "access": f.Access.String(), "unmapped": f.Unmapped,
	})
}

// Frame is one unwound stack frame.
type Frame struct {
	PC       uint64 // return address (or initial pc for frame 0)
	FuncName string
	RAAddr   uint64 // address of the return-address slot
}

// Unwind walks the stack from a PC inside a function body and its
// post-prologue stack pointer, driven by the emitted unwind metadata and
// the per-call-site CFI adjustments — the mechanism that keeps exception
// handling working despite BTRAs (Section 7.2.4). It returns the frames
// from innermost to outermost, stopping at _start or after maxFrames.
func (p *Process) Unwind(pc, rsp uint64, maxFrames int) ([]Frame, error) {
	var frames []Frame
	for len(frames) < maxFrames {
		pf := p.Img.FuncAt(pc)
		if pf == nil {
			return frames, fmt.Errorf("rt: unwind: pc %#x not in any function", pc)
		}
		if pf.F.Name == image.EntrySym {
			frames = append(frames, Frame{PC: pc, FuncName: pf.F.Name})
			return frames, nil
		}
		ue := p.Img.UnwindAt(pc)
		if ue == nil {
			return frames, fmt.Errorf("rt: unwind: no unwind entry for %#x (%s)", pc, pf.F.Name)
		}
		raAddr := rsp + uint64(ue.FrameSize) + uint64(ue.NumSaves)*8 + uint64(ue.PostOffset)*8
		ra, err := p.Space.Read64(raAddr)
		if err != nil {
			return frames, fmt.Errorf("rt: unwind: read RA at %#x: %w", raAddr, err)
		}
		frames = append(frames, Frame{PC: pc, FuncName: pf.F.Name, RAAddr: raAddr})

		// Per-call-site CFI data: the caller's stack adjustments around
		// this call (pre-offset, stack arguments, rbp save, padding).
		site := p.callSiteAt(ra)
		if site == nil {
			if p.Img.FuncAt(ra) != nil && p.Img.Funcs[image.EntrySym].Start <= ra && ra < p.Img.Funcs[image.EntrySym].End {
				frames = append(frames, Frame{PC: ra, FuncName: image.EntrySym})
				return frames, nil
			}
			return frames, fmt.Errorf("rt: unwind: RA %#x matches no call site", ra)
		}
		callerRsp := raAddr + 8 + uint64(site.Pre)*8
		if site.StackArgs > 0 {
			words := site.StackArgs
			oia := p.Cfg.OIAEnabled()
			if oia {
				words++
			}
			if words%2 == 1 {
				words++ // alignment pad
			}
			callerRsp += uint64(words) * 8
		}
		pc, rsp = ra, callerRsp
	}
	return frames, nil
}

// callSiteAt returns the call site whose return address is ra: the one
// whose call instruction ends exactly at ra. It returns nil when no call
// does, or when that call belongs to no call site (the synthesized entry).
func (p *Process) callSiteAt(ra uint64) *codegen.CallSite {
	pf := p.Img.FuncAt(ra - 1)
	if pf == nil {
		return nil
	}
	// The call is the instruction before the one at ra, or the last one
	// when ra is pf.End.
	i := len(pf.InstrAddrs)
	if ra < pf.End {
		i = pf.InstrIndexAt(ra) // -1: ra splits an instruction
	}
	if i <= 0 {
		return nil
	}
	in := &pf.F.Instrs[i-1]
	if in.Kind != isa.KCall && in.Kind != isa.KCallInd {
		return nil
	}
	for j := range pf.F.CallSites {
		if cs := &pf.F.CallSites[j]; cs.ID == int(in.CallSiteID) {
			return cs
		}
	}
	return nil
}
