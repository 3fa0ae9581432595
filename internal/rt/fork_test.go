package rt_test

import (
	"context"
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/image"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// nginxImage links the nginx request handler under full R2C, the image
// every request of the serving fleet forks.
func nginxImage(tb testing.TB) *image.Image {
	tb.Helper()
	img, err := sim.BuildImage(workload.NginxRequest(), defense.R2CFull(), 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// runToHalt runs p on a fresh machine and returns the result and error
// text. sampleEvery > 0 records RSS samples.
func runToHalt(p *rt.Process, sampleEvery uint64) (*vm.Result, string) {
	m := vm.New(p, vm.EPYCRome())
	m.SampleEvery = sampleEvery
	res, err := m.Run(sim.DefaultBudget)
	return res, errText(err)
}

// TestForksRunConcurrently runs forks of one snapshot to halt on separate
// goroutines — the fleet's MVEE lockstep and heal loads do the same — and
// requires each to match a serial run. Under -race it also proves forks
// never write the pages and heap metadata they share.
func TestForksRunConcurrently(t *testing.T) {
	snap, err := rt.Load(nginxImage(t), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := runToHalt(snap.Fork(nil), 50)
	if wantErr != "" || !want.Halted {
		t.Fatalf("serial fork did not halt: %q", wantErr)
	}
	const n = 4
	var wg sync.WaitGroup
	results := make([]*vm.Result, n)
	errs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runToHalt(snap.Fork(nil), 50)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != "" || !reflect.DeepEqual(results[i], want) {
			t.Errorf("fork %d on its own goroutine: %+v (%q), serial fork %+v", i, results[i], errs[i], want)
		}
	}
}

// forkFuzzConfigs are the configurations FuzzForkMatchesLoad draws from:
// without BTDP (no constructor), both R2C variants, and shadow-stack CFI.
var forkFuzzConfigs = []defense.Config{defense.Off(), defense.R2CFull(), defense.R2CPush(), defense.CFIShadowStack()}

// Fuel bounds: corrupted forks may loop, and a mid-run store may send the
// compared runs astray too (identically, but possibly for ever).
const (
	corruptFuel = 200_000
	compareFuel = 2_000_000
)

// record decodes one 12-byte fuzz record: bytes 0-1 pick a page of pages,
// bytes 3-4 a word in it, bytes 5-11 the value (byte 2 is corrupt's
// operation).
func record(pages []uint64, rec []byte) (addr, val uint64) {
	page := pages[int(binary.LittleEndian.Uint16(rec))%len(pages)]
	return page + uint64(binary.LittleEndian.Uint16(rec[3:])%(mem.PageSize/8))*8, binary.LittleEndian.Uint64(rec[4:]) >> 8
}

// corrupt applies one fuzz-chosen mutation per record to p: a store
// (honouring permissions, so stores to text or guard pages fault
// harmlessly), a heap allocation that is written and sometimes freed, or a
// Protect of the record's page.
func corrupt(p *rt.Process, pages []uint64, recs []byte) {
	for ; len(recs) >= 12; recs = recs[12:] {
		addr, val := record(pages, recs)
		switch op := recs[2]; op % 8 {
		case 6:
			if a, err := p.Heap.Alloc(val % (3 * mem.PageSize)); err == nil {
				_ = p.Space.Write64(a, val)
				if op&8 != 0 {
					_ = p.Heap.Free(a)
				}
			}
		case 7:
			_ = p.Space.Protect(mem.AlignDown(addr, mem.PageSize), mem.PageSize, mem.Perm(op>>3)&(mem.PermRead|mem.PermWrite|mem.PermExec))
		default:
			_ = p.Space.Write64(addr, val)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// pagesOf lists every mapped page of snap's processes, the pages fuzz
// records address.
func pagesOf(snap *rt.Snapshot) []uint64 {
	var pages []uint64
	for _, r := range snap.Fork(nil).Space.Regions() {
		for a := r.Addr; a < r.Addr+r.Size; a += mem.PageSize {
			pages = append(pages, a)
		}
	}
	return pages
}

// compareRun is the run the fuzz targets compare, on a machine just armed
// on p: RSS samples every 97 instructions and, when pause is nonzero, a
// pause after pause instructions in which every fuzzed store goes through
// p's Space (the attacker's write path) before the run resumes.
func compareRun(m *vm.Machine, p *rt.Process, pages []uint64, pause uint16, writes []byte) (*vm.Result, string) {
	m.SampleEvery = 97
	if pause > 0 {
		if res, err := m.Run(uint64(pause)); err != vm.ErrFuelExhausted {
			return res, errText(err)
		}
		for recs := writes; len(recs) >= 12; recs = recs[12:] {
			addr, val := record(pages, recs)
			_ = p.Space.Write64(addr, val)
		}
	}
	res, err := m.Run(compareFuel)
	return res, errText(err)
}

// FuzzForkMatchesLoad serves several forks of one snapshot of a generated
// program, each mutated by fuzzed writes, allocations and protections, run
// and released, and requires the next fork to run bit-identically — cycles,
// instructions, output, TLB and i-cache counts, peak RSS and RSS samples —
// to the un-forked process the loader built. When pause is nonzero both
// runs stop after pause instructions, take the same fuzzed stores through
// their Space (the attacker's write path), and resume: the software TLB
// must see stores that copied a shared page behind its back.
//
// Plain `go test` replays the seed corpus in testdata/fuzz; explore with
// `make fuzz FUZZTIME=60s`.
func FuzzForkMatchesLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, cfgIx, forks uint8, pause uint16, writes []byte) {
		cfg := forkFuzzConfigs[int(cfgIx)%len(forkFuzzConfigs)]
		img, err := sim.BuildImage(workload.Random(seed), cfg, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := rt.Load(img, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		pages := pagesOf(snap)

		n := int(forks)%4 + 1
		per := (len(writes)/n/12 + 1) * 12
		for i := 0; i < n; i++ {
			recs := writes[min(i*per, len(writes)):min((i+1)*per, len(writes))]
			p := snap.Fork(nil)
			corrupt(p, pages, recs)
			m := vm.New(p, vm.EPYCRome())
			_, _ = m.Run(corruptFuel)
			p.Release() // the compared forks reuse its dirtied pages
		}

		run := func(p *rt.Process) (*vm.Result, string) {
			return compareRun(vm.New(p, vm.EPYCRome()), p, pages, pause, writes)
		}
		ref, err := rt.LoadProcess(img, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := run(ref)
		got, gotErr := run(snap.Fork(nil))
		if gotErr != wantErr || !reflect.DeepEqual(got, want) {
			t.Fatalf("fork after %d mutated forks differs from the loaded process\nfork:   %+v (%q)\nloaded: %+v (%q)", n, got, gotErr, want, wantErr)
		}
	})
}

// Benchmark sinks keep the measured calls' results alive.
var (
	imgSink  *image.Image
	imgsSink []*image.Image
	snapSink *rt.Snapshot
	procSink *rt.Process
)

// BenchmarkBuildImage prices what every heal, audit variant and
// rediversify unit pays before a load: compile and link one SPEC module
// under full R2C with a fresh seed. Its allocations per op are the build
// path's regression signal, as BenchmarkServeRequest's are the serve path's;
// TestBuildImageAllocs holds their ceiling.
func BenchmarkBuildImage(b *testing.B) {
	m := workload.Perlbench(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if imgSink, err = sim.BuildImage(m, defense.R2CFull(), uint64(i)+1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRediversify is the rediversify workload's shape: each op builds
// 16 fresh seeds of r2c-full perlbench through exec.Engine.BuildImages at
// width 2 and keeps every image until the next op's batch is done.
// BenchmarkBuildImage's one image dies at once, so it barely sees the
// garbage collector; here every cycle marks up to 32 live images, as a
// rediversify round's does.
func BenchmarkRediversify(b *testing.B) {
	m := workload.Perlbench(8)
	seeds := make([]uint64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range seeds {
			seeds[j] = uint64(i*len(seeds)+j) + 1
		}
		imgs, err := exec.New(2, nil).BuildImages(context.Background(), m, defense.R2CFull(), seeds)
		if err != nil {
			b.Fatal(err)
		}
		imgsSink = imgs
	}
	b.ReportMetric(float64(b.N*len(seeds))/b.Elapsed().Seconds(), "builds/s")
}

// BenchmarkPredecode prices the predecoder alone (pcode.Build, which Link
// and Reroll run once per image) on BenchmarkBuildImage's module: one
// r2c-full perlbench image, predecoded again each op.
func BenchmarkPredecode(b *testing.B) {
	img, err := sim.BuildImage(workload.Perlbench(8), defense.R2CFull(), 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.RebuildCode()
	}
}

// BenchmarkLoad times the whole loader: segment mapping, heap set-up and
// the BTDP constructor's allocate-free-protect dance, then the freeze.
func BenchmarkLoad(b *testing.B) {
	img := nginxImage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if snapSink, err = rt.Load(img, 7, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFork times what a served request pays instead of BenchmarkLoad:
// one copy-on-write fork of the loaded snapshot.
func BenchmarkFork(b *testing.B) {
	snap, err := rt.Load(nginxImage(b), 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procSink = snap.Fork(nil)
	}
}
