package mvee

import (
	"strings"
	"testing"

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/incident"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

func TestBenignRunAgrees(t *testing.T) {
	// Differently-seeded R2C variants of a real workload must agree on
	// every observable event — the precondition for MVEE supervision.
	b, _ := workload.ByName("xz")
	e, err := New(b.Build(8), defense.R2CFull(), 3, 11, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Run(100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Detected() {
		t.Fatalf("benign run flagged: %+v", v.Reason)
	}
	if len(v.Results[0].Output) == 0 {
		t.Fatal("no output compared")
	}
}

func TestRequiresTwoVariants(t *testing.T) {
	b, _ := workload.ByName("xz")
	if _, err := New(b.Build(8), defense.Off(), 1, 1, vm.EPYCRome()); err == nil {
		t.Fatal("single-variant engine accepted")
	}
}

// TestCorruptionDiverges is the Section 7.3 claim: a memory corruption that
// would succeed (or fail silently) in one process diverges under the MVEE
// because the same absolute write lands differently in each variant.
func TestCorruptionDiverges(t *testing.T) {
	detected := 0
	trials := 6
	for seed := uint64(1); seed <= uint64(trials); seed++ {
		e, err := New(attack.Victim(), defense.R2CFull(), 2, seed*100, vm.EPYCRome())
		if err != nil {
			t.Fatal(err)
		}
		// The attacker corrupts variant 0's secret_key and admin_ptr using
		// variant-0 addresses (as a real exploit would after leaking them
		// from that variant); the supervisor replicates the input-induced
		// writes to every variant.
		img := e.Variants[0].Proc.Img
		key := img.DataSyms[attack.SymSecretKey]
		admin := img.DataSyms[attack.SymAdminPtr]
		secret := img.Funcs[attack.SymSecretFunc]
		e.CorruptAll(key.Addr, attack.MagicArg)
		e.CorruptAll(admin.Addr, secret.Start)

		v, err := e.Run(100_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v.Detected() {
			detected++
		} else if attack.HasWin(v.Results[0].Output) {
			t.Errorf("seed %d: attack succeeded without MVEE detection", seed)
		}
	}
	if detected < trials-1 {
		t.Fatalf("MVEE detected only %d/%d corruption attempts", detected, trials)
	}
	t.Logf("MVEE detected %d/%d", detected, trials)
}

// TestSingleProcessAttackVsMVEE contrasts a single process, where the same
// corruption wins outright.
func TestSingleProcessAttackVsMVEE(t *testing.T) {
	e, err := New(attack.Victim(), defense.Off(), 2, 300, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	img := e.Variants[0].Proc.Img
	key := img.DataSyms[attack.SymSecretKey]
	admin := img.DataSyms[attack.SymAdminPtr]
	secret := img.Funcs[attack.SymSecretFunc]

	// Against variant 0 alone the attack wins...
	_ = e.Variants[0].Proc.Space.Write64(key.Addr, attack.MagicArg)
	_ = e.Variants[0].Proc.Space.Write64(admin.Addr, secret.Start)
	res, err := e.Variants[0].Mach.Run(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !attack.HasWin(res.Output) {
		t.Fatal("direct corruption should win against a single unprotected process")
	}
	// ...but the second variant, fed the same writes, diverges.
	_ = e.Variants[1].Proc.Space.Write64(key.Addr, attack.MagicArg)
	_ = e.Variants[1].Proc.Space.Write64(admin.Addr, secret.Start)
	res2, err := e.Variants[1].Mach.Run(100_000_000)
	if err == nil && res2.Halted && res2.Fault == nil {
		if len(res2.Output) == len(res.Output) {
			same := true
			for i := range res.Output {
				if res.Output[i] != res2.Output[i] {
					same = false
				}
			}
			if same {
				t.Fatal("variants agreed on a corrupted run — no divergence signal")
			}
		}
	}
}

// boundedLoopModule runs a loop whose trip count is read from the "bound"
// global at runtime, so a corrupting write can send one variant into a
// multi-billion-iteration loop while its siblings finish normally.
func boundedLoopModule() *tir.Module {
	mb := tir.NewModule("bounded")
	mb.AddGlobal("bound", 8, 4)
	main := mb.NewFunc("main", 0)
	bp := main.AddrGlobal("bound")
	n := main.Load(bp, 0)
	acc := main.Const(0)
	workload.LoopTo(main, 0, n, func(i tir.Reg) {
		main.BinTo(acc, tir.OpAdd, acc, i)
	})
	main.Output(acc)
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

// TestHungVariantDiverges pins the liveness-divergence contract: a variant
// that is still running when the slice budget expires must yield a Diverged
// verdict (with the hung variant identified and an incident recorded) — not
// a nil verdict or an engine error.
func TestHungVariantDiverges(t *testing.T) {
	e, err := New(boundedLoopModule(), defense.R2CFull(), 2, 7, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	e.Incidents = incident.NewLog()
	// The corrupting input inflates variant 1's loop bound; variant 0 keeps
	// the benign bound and finishes inside the first slice.
	bound := e.Variants[1].Proc.Img.DataSyms["bound"]
	if err := e.Variants[1].Proc.Space.Write64(bound.Addr, 1<<40); err != nil {
		t.Fatal(err)
	}
	v, err := e.Run(10_000, 5)
	if err != nil {
		t.Fatalf("hung variant must not be an engine error, got %v", err)
	}
	if !v.Diverged || !v.Detected() {
		t.Fatalf("hung variant not flagged as divergence: %+v", v)
	}
	if len(v.Hung) != 1 || v.Hung[0] != 1 {
		t.Fatalf("Hung = %v, want [1]", v.Hung)
	}
	if !strings.Contains(v.Reason, "exceeded the slice budget") {
		t.Fatalf("reason %q does not name the slice budget", v.Reason)
	}
	if v.Results[0] == nil || v.Results[0].Output[0] != 6 {
		t.Fatalf("finished variant's result lost: %+v", v.Results[0])
	}
	if v.Results[1] != nil {
		t.Fatalf("hung variant should have no final result, got %+v", v.Results[1])
	}
	recs := e.Incidents.Records()
	if len(recs) != 1 || recs[0].Kind != "divergence" || recs[0].Seed != e.Variants[1].Seed {
		t.Fatalf("want one divergence incident for the hung variant's seed, got %+v", recs)
	}
	if recs[0].Instr != 10_000*5 {
		t.Fatalf("hung variant's incident retired %d instructions, want the whole budget %d", recs[0].Instr, 10_000*5)
	}
}

// TestBudgetIsSliceTimesMaxSlices pins the budget's size: a variant that
// needs between four and five 10,000-instruction slices finishes under
// maxSlices 5 and hangs under 4.
func TestBudgetIsSliceTimesMaxSlices(t *testing.T) {
	run := func(maxSlices int) *Verdict {
		t.Helper()
		e, err := New(boundedLoopModule(), defense.R2CFull(), 2, 7, vm.EPYCRome())
		if err != nil {
			t.Fatal(err)
		}
		bound := e.Variants[1].Proc.Img.DataSyms["bound"]
		if err := e.Variants[1].Proc.Space.Write64(bound.Addr, 3457); err != nil {
			t.Fatal(err)
		}
		v, err := e.Run(10_000, maxSlices)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v := run(5)
	if len(v.Hung) != 0 || v.Results[1] == nil || !v.Results[1].Halted {
		t.Fatalf("variant 1 did not finish under 5 slices: hung %v, reason %q", v.Hung, v.Reason)
	}
	if n := v.Results[1].Instructions; n <= 40_000 || n > 50_000 {
		t.Fatalf("variant 1 retired %d instructions, want between 4 and 5 slices", n)
	}
	if v := run(4); len(v.Hung) != 1 || v.Hung[0] != 1 {
		t.Fatalf("Hung = %v under 4 slices, want [1]", v.Hung)
	}
}

// derefModule dereferences whatever address sits in the "ptr" global, so a
// pre-run write can steer each variant at a different target.
func derefModule() *tir.Module {
	mb := tir.NewModule("deref")
	mb.AddGlobal("data", 8, 0x5a)
	mb.AddGlobal("ptr", 8, 0)
	main := mb.NewFunc("main", 0)
	pp := main.AddrGlobal("ptr")
	p := main.Load(pp, 0)
	v := main.Load(p, 0)
	main.Output(v)
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

// TestTrapAndDivergenceBothSurface steers one variant's dereference into its
// own BTDP guard page: the trap and the divergence must both appear on the
// verdict, and the incident log must carry both records.
func TestTrapAndDivergenceBothSurface(t *testing.T) {
	e, err := New(derefModule(), defense.R2CFull(), 2, 21, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	e.Incidents = incident.NewLog()
	// Variant 0 dereferences its own data word (benign); variant 1 is sent
	// into one of its guard pages.
	p0 := e.Variants[0].Proc
	if err := p0.Space.Write64(p0.Img.DataSyms["ptr"].Addr, p0.Img.DataSyms["data"].Addr); err != nil {
		t.Fatal(err)
	}
	p1 := e.Variants[1].Proc
	if len(p1.GuardPages) == 0 {
		t.Fatal("r2c-full variant has no guard pages")
	}
	if err := p1.Space.Write64(p1.Img.DataSyms["ptr"].Addr, p1.GuardPages[0]); err != nil {
		t.Fatal(err)
	}
	v, err := e.Run(10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Trapped {
		t.Fatalf("guard-page dereference did not trap: %+v", v)
	}
	if !v.Diverged {
		t.Fatalf("trap asymmetry did not diverge: %+v", v)
	}
	kinds := map[string]int{}
	for _, r := range e.Incidents.Records() {
		kinds[r.Kind]++
	}
	if kinds["trap"] == 0 || kinds["divergence"] == 0 {
		t.Fatalf("want both trap and divergence incidents, got %v", kinds)
	}
}

// divModule divides by the "den" global, so zeroing one variant's copy makes
// only that variant die with a simulator error.
func divModule() *tir.Module {
	mb := tir.NewModule("divm")
	mb.AddGlobal("den", 8, 3)
	main := mb.NewFunc("main", 0)
	dp := main.AddrGlobal("den")
	d := main.Load(dp, 0)
	x := main.Const(99)
	q := main.Bin(tir.OpDiv, x, d)
	main.Output(q)
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

// TestErroredVariantDiverges pins the hardened simulator-error branch: a
// variant that dies with a VM error (division by zero only its corrupted
// state reaches) must surface as a divergence carrying the error text, and
// must never compare silently equal to the clean variant.
func TestErroredVariantDiverges(t *testing.T) {
	e, err := New(divModule(), defense.R2CFull(), 2, 33, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	e.Incidents = incident.NewLog()
	den := e.Variants[1].Proc.Img.DataSyms["den"]
	if err := e.Variants[1].Proc.Space.Write64(den.Addr, 0); err != nil {
		t.Fatal(err)
	}
	v, err := e.Run(10_000, 0)
	if err != nil {
		t.Fatalf("one errored variant must not fail the supervisor, got %v", err)
	}
	if !v.Diverged {
		t.Fatalf("errored variant not flagged: %+v", v)
	}
	if v.Errs[0] != "" || !strings.Contains(v.Errs[1], "division by zero") {
		t.Fatalf("Errs = %q, want variant 1's division-by-zero text", v.Errs)
	}
	if !strings.Contains(v.Reason, "simulator error") {
		t.Fatalf("reason %q does not name the simulator error", v.Reason)
	}
	if v.Results[0] == nil || v.Results[0].Output[0] != 33 {
		t.Fatalf("clean variant's result lost: %+v", v.Results[0])
	}
	if e.Incidents.Len() == 0 {
		t.Fatal("errored-variant divergence recorded no incident")
	}
}

// TestCorruptAllRecordsLanding pins the injection ground truth: the leaked
// variant always accepts the write at its own symbol address, and an address
// mapped in no variant is rejected everywhere.
func TestCorruptAllRecordsLanding(t *testing.T) {
	e, err := New(attack.Victim(), defense.R2CFull(), 3, 500, vm.EPYCRome())
	if err != nil {
		t.Fatal(err)
	}
	key := e.Variants[0].Proc.Img.DataSyms[attack.SymSecretKey]
	landed := e.CorruptAll(key.Addr, attack.MagicArg)
	if len(landed) != 3 {
		t.Fatalf("landed has %d entries, want 3", len(landed))
	}
	if !landed[0] {
		t.Fatal("the leaked variant rejected a write at its own symbol address")
	}
	for i, l := range e.CorruptAll(0xffff_ffff_f000, 1) {
		if l {
			t.Errorf("variant %d accepted a write at an unmapped address", i)
		}
	}
}
