package isa

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestEncodedSizesPositive(t *testing.T) {
	for k := KMovImm; k <= KHalt; k++ {
		in := Instr{Kind: k}
		if in.EncodedSize() <= 0 {
			t.Errorf("%v has non-positive size", k)
		}
		if in.EncodedSize() > 16 {
			t.Errorf("%v has implausible size %d", k, in.EncodedSize())
		}
	}
}

func TestRelativeSizes(t *testing.T) {
	// The i-cache model depends on these relations: a push-based BTRA setup
	// occupies substantially more code bytes than the AVX2 sequence.
	push := (&Instr{Kind: KPushImm}).EncodedSize()
	vload := (&Instr{Kind: KVLoad}).EncodedSize()
	vstore := (&Instr{Kind: KVStore}).EncodedSize()
	vzero := (&Instr{Kind: KVZeroUpper}).EncodedSize()
	// 10 BTRAs: push setup = 12 pushes + add; AVX = 3 loads + 3 stores +
	// vzeroupper + sub.
	pushBytes := 12*push + 4
	avxBytes := 3*vload + 3*vstore + vzero + 4
	if pushBytes <= avxBytes {
		t.Fatalf("push setup (%dB) must outweigh AVX setup (%dB)", pushBytes, avxBytes)
	}
	if (&Instr{Kind: KNop}).EncodedSize() != 1 {
		t.Error("NOP must be 1 byte")
	}
}

func TestRegisterNames(t *testing.T) {
	if RSP.String() != "rsp" || RBP.String() != "rbp" || RAX.String() != "rax" {
		t.Error("register names wrong")
	}
	if NumRegs != 16 {
		t.Errorf("GPR file = %d, want 16", NumRegs)
	}
	if len(ArgRegs) != 6 {
		t.Errorf("System V passes 6 register args, got %d", len(ArgRegs))
	}
	if ArgRegs[0] != RDI || ArgRegs[1] != RSI {
		t.Error("arg register order is not System V")
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Kind: KMovImm, Dst: RAX, Imm: 0x10}, "mov rax, 0x10"},
		{Instr{Kind: KLoad, Dst: RBX, Base: RSP, Disp: 8}, "mov rbx, [rsp+8]"},
		{Instr{Kind: KStore, Base: RSP, Disp: -8, Src: RCX}, "mov [rsp-8], rcx"},
		{Instr{Kind: KPushImm, Sym: 1, SymOff: 2, BTRA: true}, "push __bt3+2 <btra>"},
		{Instr{Kind: KPushImm, RetAddr: true, CallSiteID: 7}, "push <ra:7>"},
		{Instr{Kind: KCall, Sym: 2}, "call main"},
		{Instr{Kind: KCall, Sym: 3}, "call sym#3"},
		{Instr{Kind: KCallInd, Src: R11}, "call *r11"},
		{Instr{Kind: KRet}, "ret"},
		{Instr{Kind: KAluImm, Alu: AluSub, Dst: RSP, Imm: 0x10}, "sub rsp, 0x10"},
		{Instr{Kind: KVZeroUpper}, "vzeroupper"},
		{Instr{Kind: KTrap}, "int3"},
		{Instr{Kind: KSys, Sys: SysAlloc}, "sys alloc"},
	}
	syms := []string{"", "__bt3", "main"}
	for _, c := range cases {
		if got := c.in.Format(syms); got != c.want {
			t.Errorf("Format() = %q, want %q", got, c.want)
		}
	}
}

func TestEnumStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for k := KMovImm; k <= KHalt; k++ {
		s := k.String()
		if strings.HasPrefix(s, "kind?") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

// TestInstrSize pins the packed layout: an r2c-full SPEC image at scale 8
// holds ≈2.4k–13k instructions, so every padding byte is paid thousands of
// times per build. The layout keeps at least one byte of padding spare.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, want 64", got)
	}
	last := reflect.TypeFor[Instr]().Field(reflect.TypeFor[Instr]().NumField() - 1)
	if end := last.Offset + last.Type.Size(); end >= unsafe.Sizeof(Instr{}) {
		t.Errorf("Instr's fields end at byte %d of %d: no padding byte left", end, unsafe.Sizeof(Instr{}))
	}
}
