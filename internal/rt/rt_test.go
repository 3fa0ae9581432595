package rt

import (
	"testing"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/workload"
)

func buildProcess(t *testing.T, cfg defense.Config, seed uint64) *Process {
	t.Helper()
	mb := tir.NewModule("rttest")
	mb.AddGlobal("g", 8, 42)
	leaf := mb.NewFunc("leaf", 1)
	l := leaf.NewLocal("x", 8)
	a := leaf.AddrLocal(l)
	leaf.Store(a, 0, leaf.Param(0))
	leaf.Ret(leaf.Load(a, 0))
	main := mb.NewFunc("main", 0)
	v := main.Const(1)
	r := main.Call("leaf", v)
	main.Output(r)
	main.RetVoid()
	mb.SetEntry("main")
	m := mb.MustBuild()

	prog, err := codegen.Compile(m, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(prog, seed+5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(img, seed+9, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s.Fork(nil)
}

func TestMemoryMapPermissions(t *testing.T) {
	p := buildProcess(t, defense.R2CFull(), 1)
	// Text is execute-only: fetch works, read faults.
	if err := p.Space.CheckExec(p.Img.Entry); err != nil {
		t.Fatalf("entry not executable: %v", err)
	}
	if _, err := p.Space.Read64(p.Img.Entry); err == nil {
		t.Fatal("execute-only text is readable")
	}
	// Without XOnlyText the text is readable.
	p2 := buildProcess(t, defense.Off(), 1)
	if _, err := p2.Space.Read64(p2.Img.Entry); err != nil {
		t.Fatalf("baseline text unreadable: %v", err)
	}
	// Data is initialized and readable.
	g := p.Img.DataSyms["g"]
	v, err := p.Space.Read64(g.Addr)
	if err != nil || v != 42 {
		t.Fatalf("global g = %d, %v", v, err)
	}
	// Stack is mapped and 16-byte aligned.
	if p.InitialRSP%16 != 0 {
		t.Fatalf("initial rsp %#x misaligned", p.InitialRSP)
	}
	if err := p.Space.Write64(p.InitialRSP-8, 1); err != nil {
		t.Fatalf("stack unwritable: %v", err)
	}
}

func TestBTDPConstructor(t *testing.T) {
	p := buildProcess(t, defense.R2CFull(), 3)
	cfg := p.Cfg
	if len(p.GuardPages) != cfg.BTDPGuardPages {
		t.Fatalf("guard pages = %d, want %d", len(p.GuardPages), cfg.BTDPGuardPages)
	}
	// Guard pages are page-aligned, protected, and scattered (not all
	// contiguous).
	contiguous := 0
	seen := map[uint64]bool{}
	for _, g := range p.GuardPages {
		if g%mem.PageSize != 0 {
			t.Fatalf("guard page %#x unaligned", g)
		}
		if seen[g] {
			t.Fatalf("duplicate guard page %#x", g)
		}
		seen[g] = true
		if _, err := p.Space.Read64(g); err == nil {
			t.Fatalf("guard page %#x readable", g)
		}
		if seen[g-mem.PageSize] || seen[g+mem.PageSize] {
			contiguous++
		}
	}
	if contiguous == len(p.GuardPages) {
		t.Error("guard pages are fully contiguous, not scattered")
	}
	// The pointer array lives on the heap (hardened layout) and every
	// value points into a kept guard page.
	hb, he := p.Heap.Bounds()
	if p.BTDPArray < hb || p.BTDPArray >= he {
		t.Fatalf("BTDP array at %#x not on the heap", p.BTDPArray)
	}
	if len(p.BTDPValues) != cfg.BTDPArrayLen {
		t.Fatalf("array has %d values, want %d", len(p.BTDPValues), cfg.BTDPArrayLen)
	}
	for _, v := range p.BTDPValues {
		if !p.IsGuardAddr(v) {
			t.Fatalf("BTDP %#x not inside a guard page", v)
		}
	}
	// The data section holds the array pointer.
	ds := p.Img.DataSyms[codegen.SymBTDPArrayPtr]
	got, err := p.Space.Read64(ds.Addr)
	if err != nil || got != p.BTDPArray {
		t.Fatalf("array pointer slot = %#x, want %#x (%v)", got, p.BTDPArray, err)
	}
	// Decoys point into guard pages but never occur in the array
	// (Section 5.2: "these additional BTDPs never occur on the stack").
	inArray := map[uint64]bool{}
	for _, v := range p.BTDPValues {
		inArray[v] = true
	}
	if len(p.DecoyVals) != cfg.BTDPDataDecoys {
		t.Fatalf("decoys = %d, want %d", len(p.DecoyVals), cfg.BTDPDataDecoys)
	}
	for _, d := range p.DecoyVals {
		if !p.IsGuardAddr(d) {
			t.Fatalf("decoy %#x not a guard pointer", d)
		}
		if inArray[d] {
			t.Fatalf("decoy %#x occurs in the BTDP array", d)
		}
	}
}

func TestNaiveBTDPArrayInData(t *testing.T) {
	cfg := defense.R2CFull()
	cfg.BTDPNaiveDataArray = true
	p := buildProcess(t, cfg, 4)
	ds := p.Img.DataSyms[codegen.SymBTDPArray]
	if ds == nil {
		t.Fatal("naive array symbol missing")
	}
	if p.BTDPArray != ds.Addr {
		t.Fatalf("naive array at %#x, want data section %#x", p.BTDPArray, ds.Addr)
	}
	v, err := p.Space.Read64(ds.Addr)
	if err != nil || !p.IsGuardAddr(v) {
		t.Fatalf("naive array word 0 = %#x (%v)", v, err)
	}
}

func TestClassifyFault(t *testing.T) {
	p := buildProcess(t, defense.R2CFull(), 5)
	// A BTDP dereference.
	f := &mem.Fault{Addr: p.BTDPValues[0], Access: mem.AccessRead}
	if k := p.ClassifyFault(p.Img.Entry, f); k != TrapBTDP {
		t.Fatalf("guard fault classified as %v", k)
	}
	// Control flow in a booby-trap function.
	var btAddr uint64
	for _, name := range p.Img.FuncOrder {
		if p.Img.Funcs[name].F.BoobyTrap {
			btAddr = p.Img.Funcs[name].Start
			break
		}
	}
	if k := p.ClassifyFault(btAddr, nil); k != TrapBTRA {
		t.Fatalf("booby trap pc classified as %v", k)
	}
	// A plain unmapped fault is no booby trap.
	f2 := &mem.Fault{Addr: 0xdead0000, Access: mem.AccessWrite, Unmapped: true}
	if k := p.ClassifyFault(p.Img.Entry, f2); k != TrapNone {
		t.Fatalf("plain fault classified as %v", k)
	}

	// Traps outside booby-trap functions, under the return-time BTRA
	// check: BTRA-tagged traps are failed checks, the rest prolog traps.
	// Non-trap instructions and addresses inside an instruction are none.
	cfg := defense.R2CFull()
	cfg.CheckBTRAsOnReturn = true
	img := linkModule(t, workload.Perlbench(8), cfg, 5)
	snap, err := Load(img, 14, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc := snap.Fork(nil)
	var checks, prologs, others, mids int
	for _, name := range img.FuncOrder {
		pf := img.Funcs[name]
		if pf.F.BoobyTrap {
			continue
		}
		for i := range pf.F.Instrs {
			in, pc := &pf.F.Instrs[i], pf.InstrAddrs[i]
			want := TrapNone
			switch {
			case in.Kind == isa.KTrap && in.BTRA:
				want = TrapBTRACheck
				checks++
			case in.Kind == isa.KTrap:
				want = TrapProlog
				prologs++
			default:
				others++
			}
			if k := proc.ClassifyFault(pc, nil); k != want {
				t.Fatalf("%s[%d] (%v) classified as %v, want %v", name, i, in.Kind, k, want)
			}
			if in.EncodedSize() > 1 {
				mids++
				if k := proc.ClassifyFault(pc+1, nil); k != TrapNone {
					t.Fatalf("%s[%d]: mid-instruction pc %#x classified as %v", name, i, pc+1, k)
				}
			}
		}
	}
	if checks == 0 || prologs == 0 || others == 0 || mids == 0 {
		t.Fatalf("coverage: %d check traps, %d prolog traps, %d other instrs, %d mid-instruction pcs", checks, prologs, others, mids)
	}
}

// linkModule compiles and links m under cfg without loading it.
func linkModule(t *testing.T, m *tir.Module, cfg defense.Config, seed uint64) *image.Image {
	t.Helper()
	prog, err := codegen.Compile(m, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(prog, seed+5)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestTrapRingBoundsGrowth drives RecordTrap far past the evidence cap and
// checks the invariants the observability layer depends on: TrapCount keeps
// the exact total, the bounded flight record ends in the final detonation,
// and the telemetry counter matches the total per trap kind.
func TestTrapRingBoundsGrowth(t *testing.T) {
	p := buildProcess(t, defense.R2CFull(), 3)
	reg := telemetry.NewRegistry()
	p.Obs = &telemetry.Observer{Registry: reg}
	p.Flight = telemetry.NewFlightRecorder(16)

	const n = 3*trapEvidenceCap + 17
	for i := 0; i < n; i++ {
		p.RecordTrap(TrapEvent{Kind: TrapBTRA, PC: uint64(i)})
	}
	if got := p.TrapCount(); got != n {
		t.Fatalf("TrapCount = %d, want %d", got, n)
	}
	evs := p.Flight.Events()
	if len(evs) != 16 || p.Flight.Total() != n {
		t.Fatalf("flight record holds %d of %d events, want 16 of %d", len(evs), p.Flight.Total(), n)
	}
	if last := evs[len(evs)-1]; last.Kind != telemetry.FlightTrap || last.PC != n-1 {
		t.Fatalf("last flight event = %+v, want the trap at PC %d", last, n-1)
	}
	key := telemetry.Key("rt.traps", "kind", TrapBTRA.String())
	if got := reg.Snapshot().Counters[key]; got != n {
		t.Fatalf("telemetry counter %s = %d, want %d", key, got, n)
	}
}

// Past the evidence cap, every detonation must be accounted: the dropped
// counter (and its registry mirror) is the signal that forensic evidence was
// lost.
func TestDroppedTrapsAccounting(t *testing.T) {
	p := buildProcess(t, defense.R2CFull(), 5)
	reg := telemetry.NewRegistry()
	p.Obs = &telemetry.Observer{Registry: reg}

	const extra = 9
	for i := 0; i < trapEvidenceCap+extra; i++ {
		p.RecordTrap(TrapEvent{Kind: TrapBTRA, PC: uint64(i)})
	}
	if got := p.DroppedTraps(); got != extra {
		t.Fatalf("DroppedTraps = %d, want %d", got, extra)
	}
	key := telemetry.Key("rt.traps.dropped")
	if got := reg.Snapshot().Counters[key]; got != extra {
		t.Fatalf("counter %s = %d, want %d", key, got, extra)
	}
	// Under the cap no drops are charged.
	p2 := buildProcess(t, defense.R2CFull(), 5)
	p2.RecordTrap(TrapEvent{Kind: TrapBTRA, PC: 1})
	if got := p2.DroppedTraps(); got != 0 {
		t.Fatalf("DroppedTraps under cap = %d", got)
	}
}

// An observer with FlightCap attaches a recorder at load time, armed with
// the process's guard pages; trap and fault events stream onto it.
func TestFlightRecorderAttachesAndArms(t *testing.T) {
	mb := tir.NewModule("rttest")
	mb.AddGlobal("g", 8, 42)
	main := mb.NewFunc("main", 0)
	main.Output(main.Const(1))
	main.RetVoid()
	mb.SetEntry("main")
	m := mb.MustBuild()
	prog, err := codegen.Compile(m, defense.R2CFull(), 7)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(prog, 12)
	if err != nil {
		t.Fatal(err)
	}
	obs := &telemetry.Observer{Registry: telemetry.NewRegistry(), FlightCap: 32}
	s, err := Load(img, 21, obs)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Fork(obs)
	if p.Flight == nil || p.Flight.Cap() != 32 {
		t.Fatalf("flight recorder not attached: %+v", p.Flight)
	}
	if len(p.GuardPages) == 0 {
		t.Fatal("r2c-full process kept no guard pages")
	}
	if !p.Flight.NearGuard(p.GuardPages[0] + 8) {
		t.Fatal("recorder not armed with the process's guard pages")
	}

	p.RecordTrap(TrapEvent{Kind: TrapBTDP, PC: 0x100, Addr: p.GuardPages[0]})
	p.NoteFault(0x200, &mem.Fault{Addr: 0xdead, Access: mem.AccessRead, Unmapped: true})
	if p.LastFaultPC() != 0x200 {
		t.Fatalf("LastFaultPC = %#x", p.LastFaultPC())
	}
	evs := p.Flight.Events()
	if len(evs) != 2 || evs[0].Kind != telemetry.FlightTrap || evs[1].Kind != telemetry.FlightFault {
		t.Fatalf("flight events = %+v", evs)
	}

	// Without FlightCap no recorder attaches and every hook is a no-op.
	obs0 := &telemetry.Observer{}
	s0, err := Load(img, 21, obs0)
	if err != nil {
		t.Fatal(err)
	}
	p0 := s0.Fork(obs0)
	if p0.Flight != nil {
		t.Fatal("recorder attached without FlightCap")
	}
	p0.NoteFault(0x300, &mem.Fault{Addr: 1, Access: mem.AccessRead})
}
