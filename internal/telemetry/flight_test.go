package telemetry

import "testing"

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record(FlightCall, 1, 2, 3)
	r.ArmGuards([]uint64{0x1000}, 0x1000)
	if r.NearGuard(0x1000) {
		t.Fatal("nil recorder must not match guards")
	}
	if r.Events() != nil || r.Total() != 0 || r.Cap() != 0 {
		t.Fatal("nil recorder must report empty state")
	}
	if NewFlightRecorder(0) != nil || NewFlightRecorder(-4) != nil {
		t.Fatal("cap <= 0 must return the disabled (nil) recorder")
	}
}

func TestFlightRecorderCapRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 16}, {16, 16}, {17, 32}, {100, 128}, {256, 256},
	} {
		if got := NewFlightRecorder(tc.in).Cap(); got != tc.want {
			t.Errorf("NewFlightRecorder(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFlightRecorderOrderAndWrap(t *testing.T) {
	r := NewFlightRecorder(16)
	for i := uint64(0); i < 40; i++ {
		r.Record(FlightJump, i, i+1, i*10)
	}
	if r.Total() != 40 {
		t.Fatalf("Total = %d, want 40", r.Total())
	}
	evs := r.Events()
	if len(evs) != 16 {
		t.Fatalf("len(Events) = %d, want 16 (ring cap)", len(evs))
	}
	for j, ev := range evs {
		want := uint64(40 - 16 + j)
		if ev.PC != want || ev.To != want+1 || ev.Instr != want*10 {
			t.Fatalf("event %d = %+v, want PC %d (oldest-first after wrap)", j, ev, want)
		}
	}
}

func TestFlightRecorderNearGuard(t *testing.T) {
	r := NewFlightRecorder(16)
	const pg = uint64(0x1000)
	r.ArmGuards([]uint64{0x30_000, 0x10_000}, pg) // unsorted on purpose

	for _, tc := range []struct {
		addr uint64
		want bool
	}{
		{0x10_000, true},     // on the guard page
		{0x10_008, true},     // inside the guard page
		{0x0F_FF8, true},     // page just below
		{0x11_000, true},     // page just above
		{0x12_000, false},    // two pages above
		{0x0E_000, false},    // two pages below
		{0x30_FFF, true},     // tail of second guard
		{0x32_000, false},    // past envelope of second guard
		{0x0, false},         // far below prefilter
		{0xFFFF_FFFF, false}, // far above prefilter
		{0x2F_000, true},     // page below second guard
		{0x20_000, false},    // between guards, outside both envelopes
	} {
		if got := r.NearGuard(tc.addr); got != tc.want {
			t.Errorf("NearGuard(%#x) = %v, want %v", tc.addr, got, tc.want)
		}
	}

	r.ArmGuards(nil, pg)
	if r.NearGuard(0x10_000) {
		t.Fatal("disarmed recorder must not match")
	}
}

func TestFlightKindString(t *testing.T) {
	for k, want := range map[FlightKind]string{
		FlightCall: "call", FlightCallInd: "call-ind", FlightRet: "ret",
		FlightJump: "jump", FlightLoad: "load", FlightProbe: "probe",
		FlightFault: "fault", FlightTrap: "trap", FlightKind(0): "?",
	} {
		if got := k.String(); got != want {
			t.Errorf("FlightKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// Record must stay allocation-free: it runs inside the VM dispatch loops.
func TestFlightRecorderRecordNoAlloc(t *testing.T) {
	r := NewFlightRecorder(64)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(FlightCall, 0x400000, 0x400100, 12345)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per call, want 0", allocs)
	}
}
