package rt_test

import (
	"reflect"
	"slices"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// How a warm-up request on the reused machine ends, two bits per warm-up
// of FuzzResetMatchesNew's ends argument.
const (
	endRun   = iota // the corrupted fork runs as far as corruptFuel lets it
	endPause        // a short budget pauses it mid-run
	endFault        // its stack page is protected, so the first push faults
	endTrap         // it pauses after one instruction and resumes in a booby-trap function
)

// boobyTrapStart returns the entry of img's first booby-trap function in
// text order, or 0 when the configuration plants none.
func boobyTrapStart(img *image.Image) uint64 {
	for _, name := range img.FuncOrder {
		if pf := img.Funcs[name]; pf.F.BoobyTrap {
			return pf.Start
		}
	}
	return 0
}

// warmUp runs p on m, just reset onto it, to the ending end, with every
// piece of machine state Reset must clear dirtied first, and names how the
// run stopped.
func warmUp(m *vm.Machine, p *rt.Process, end int, pause uint16, reg *telemetry.Registry) string {
	m.SampleEvery, m.FlushICacheEvery = 89, 1009
	m.EnableProfiler()
	var (
		res *vm.Result
		err error
	)
	switch end {
	case endPause:
		res, err = m.Run(1 + uint64(pause)%512)
	case endFault:
		_ = p.Space.Protect(mem.AlignDown(p.InitialRSP-8, mem.PageSize), mem.PageSize, mem.PermNone)
		res, err = m.Run(corruptFuel)
	case endTrap:
		if res, err = m.Run(1); err == vm.ErrFuelExhausted {
			if pc := boobyTrapStart(p.Img); pc != 0 {
				m.CPU.PC = pc
			}
			res, err = m.Run(corruptFuel)
		}
	default:
		res, err = m.Run(corruptFuel)
	}
	m.PublishMetrics(reg)
	// Leave architectural garbage behind too: live registers, vector lanes
	// and the AVX dirty-upper state that prices later calls and returns.
	for i := range m.CPU.R {
		m.CPU.R[i] = ^uint64(i)
	}
	m.CPU.V[0][7], m.CPU.DirtyUpper = 1, true
	switch {
	case res.Trap != nil:
		return "trap"
	case res.Fault != nil:
		return "fault"
	case err == vm.ErrFuelExhausted:
		return "pause"
	case err != nil:
		return "error"
	}
	return "halt"
}

// checkResetMatchesNew serves forks-selected warm-up requests on one
// machine — forks of the compared snapshot or of another program's
// snapshot under full R2C, the image a slot served before a heal — each
// mutated by fuzzed records and ended as ends selects. Then it resets the
// same machine onto a fresh fork and requires the run, and the metrics it
// publishes, to equal a fresh vm.New on the un-forked loaded process. It
// returns how each warm-up ended.
func checkResetMatchesNew(t *testing.T, seed uint64, cfgIx, forks, ends uint8, pause uint16, writes []byte) []string {
	cfg := forkFuzzConfigs[int(cfgIx)%len(forkFuzzConfigs)]
	load := func(cfg defense.Config, seed uint64) (*image.Image, *rt.Snapshot) {
		img, err := sim.BuildImage(workload.Random(seed), cfg, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := rt.Load(img, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return img, snap
	}
	img, snap := load(cfg, seed)
	_, prev := load(defense.R2CFull(), seed+1)
	pages, prevPages := pagesOf(snap), pagesOf(prev)

	warmReg := telemetry.NewRegistry()
	m := vm.New(prev.Fork(nil), vm.EPYCRome())
	n := int(forks)%4 + 1
	per := (len(writes)/n/12 + 1) * 12
	var endings []string
	for i := 0; i < n; i++ {
		s, pg := snap, pages
		if forks>>(2+i)&1 != 0 {
			s, pg = prev, prevPages
		}
		p := s.Fork(nil)
		corrupt(p, pg, writes[min(i*per, len(writes)):min((i+1)*per, len(writes))])
		m.Reset(p)
		endings = append(endings, warmUp(m, p, int(ends>>(2*i)&3), pause, warmReg))
		p.Release()
	}

	ref, err := rt.LoadProcess(img, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := vm.New(ref, vm.EPYCRome())
	want, wantErr := compareRun(fresh, ref, pages, pause, writes)

	p := snap.Fork(nil)
	m.Reset(p)
	if m.SampleEvery != 0 || m.FlushICacheEvery != 0 || m.Profiler() != nil {
		t.Fatalf("Reset kept knobs or profiler: SampleEvery %d, FlushICacheEvery %d, profiler %v", m.SampleEvery, m.FlushICacheEvery, m.Profiler() != nil)
	}
	got, gotErr := compareRun(m, p, pages, pause, writes)
	if gotErr != wantErr || !reflect.DeepEqual(got, want) {
		t.Fatalf("reset machine after warm-ups ending %v differs from a fresh one\nreset: %+v (%q)\nfresh: %+v (%q)", endings, got, gotErr, want, wantErr)
	}
	wantReg, gotReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	fresh.PublishMetrics(wantReg)
	m.PublishMetrics(gotReg)
	if w, g := wantReg.Snapshot(), gotReg.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("reset machine publishes\n%+v\nfresh machine\n%+v", g, w)
	}
	return endings
}

// FuzzResetMatchesNew is the oracle for vm.Machine.Reset, the serving
// fleet's per-slot machine reuse: whatever earlier requests left in the
// machine — corrupted forks, another image, RSS-sample and i-cache-flush
// knobs, a profiler, published deltas, and runs that ended in a fault, a
// booby trap or a budget pause — the next request runs bit-identically to
// one on a fresh machine.
//
// Plain `go test` replays the seed corpus in testdata/fuzz; explore with
// `make fuzz FUZZTIME=60s`.
func FuzzResetMatchesNew(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, cfgIx, forks, ends uint8, pause uint16, writes []byte) {
		checkResetMatchesNew(t, seed, cfgIx, forks, ends, pause, writes)
	})
}

// TestResetAfterEveryEnding pins the fuzz oracle's coverage: a reused
// machine whose earlier requests ended in a fault, a booby trap and a
// budget pause, the last on another image, still matches a fresh one.
func TestResetAfterEveryEnding(t *testing.T) {
	for _, cfgIx := range []uint8{0, 1} {
		ends := uint8(endRun | endPause<<2 | endFault<<4 | endTrap<<6)
		got := checkResetMatchesNew(t, 3, cfgIx, 3|1<<5, ends, 40, nil)
		for _, want := range []string{"pause", "fault", "trap"} {
			if !slices.Contains(got, want) {
				t.Errorf("config %d: warm-ups ended %v, none in a %s", cfgIx, got, want)
			}
		}
	}
}
