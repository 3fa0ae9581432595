package vm_test

import (
	"reflect"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/telemetry"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// fuzzConfigs are the defense configurations the generated-program
// differentials draw from: the baseline, both R2C variants (AVX and push
// BTRA setups, so both call-site setup shapes occur), and the
// shadow-stack CFI whose violations stop runs mid-block.
var fuzzConfigs = []defense.Config{defense.Off(), defense.R2CFull(), defense.R2CPush(), defense.CFIShadowStack()}

// fuzzFuel caps how many instructions one fuzz input may retire, so a
// one-instruction chunk size keeps an input fast.
const fuzzFuel = 2_000_000

// FuzzFastMatchesReference steps the fast path and the reference
// interpreter in lockstep over a generated program, with a fuzzed chunk
// size and fuzzed RSS-sampling and i-cache-flush intervals — small values
// force a segment cut at nearly every op, inside blocks and BTRA setup runs.
// At every pause both machines must agree on the Result, the PC, the error
// text and the flight-recorder stream.
//
// Plain `go test` replays the seed corpus in testdata/fuzz; explore with
// `make fuzz FUZZTIME=60s`.
func FuzzFastMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, cfgIx uint8, chunk uint32, sampleEvery, flushEvery uint16) {
		cfg := fuzzConfigs[int(cfgIx)%len(fuzzConfigs)]
		img := buildImage(t, workload.Random(seed), cfg, seed)
		mk := func() *vm.Machine {
			obs := &telemetry.Observer{FlightCap: 64}
			m := newMachine(t, img, seed, vm.EPYCRome(), obs)
			m.SampleEvery = uint64(sampleEvery)
			m.FlushICacheEvery = uint64(flushEvery)
			return m
		}
		fm, rm := mk(), mk()
		step := uint64(chunk)%100_000 + 1
		var fr, rr *vm.Result
		for {
			var fe, re error
			fr, fe = fm.Run(step)
			rr, re = vm.RunReference(rm, step)
			if errString(fe) != errString(re) {
				t.Fatalf("errors diverge at %d instructions: fast %q, reference %q", rr.Instructions, errString(fe), errString(re))
			}
			if fm.CPU.PC != rm.CPU.PC {
				t.Fatalf("PC diverges at %d instructions: fast %#x, reference %#x", rr.Instructions, fm.CPU.PC, rm.CPU.PC)
			}
			// RSSSamples and Output only ever grow, so equal lengths at
			// every pause plus equal contents at the end prove every
			// pause's slices equal without a quadratic comparison.
			if !reflect.DeepEqual(withoutSlices(fr), withoutSlices(rr)) ||
				len(fr.RSSSamples) != len(rr.RSSSamples) || len(fr.Output) != len(rr.Output) {
				t.Fatalf("results diverge at a pause\nfast:      %+v\nreference: %+v", fr, rr)
			}
			if fm.Proc.Flight.Total() != rm.Proc.Flight.Total() ||
				!reflect.DeepEqual(fm.Proc.Flight.Events(), rm.Proc.Flight.Events()) {
				t.Fatalf("flight events diverge at %d instructions\nfast:      %+v\nreference: %+v",
					rr.Instructions, fm.Proc.Flight.Events(), rm.Proc.Flight.Events())
			}
			if re != vm.ErrFuelExhausted || rr.Instructions >= fuzzFuel {
				break
			}
		}
		if !reflect.DeepEqual(fr, rr) {
			t.Fatalf("results diverge\nfast:      %+v\nreference: %+v", fr, rr)
		}
	})
}

// withoutSlices copies r with its append-only slices cleared.
func withoutSlices(r *vm.Result) vm.Result {
	c := *r
	c.RSSSamples, c.Output = nil, nil
	return c
}
