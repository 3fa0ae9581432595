package tir

import (
	"reflect"
	"strings"
	"testing"
)

const sampleSrc = `
# a complete sample program
module sample
entry main

global table data size=32 init=0x1,0x2,0x3
global mode defaultparam size=8 init=0x7
global fp funcptr init=leaf
global handlers funcptr init=leaf,leaf

func leaf params=2 {
  locals buf:16
b0:
  r2 = add r0, r1
  r3 = addrlocal buf
  store [r3+0], r2
  r4 = load [r3+0]
  ret r4
}

func helper params=1 unprotected {
b0:
  ret r0
}

func main params=0 {
b0:
  r0 = const 0x5
  r1 = const 3
  r2 = call leaf(r0, r1)
  r3 = addrglobal table
  r4 = load [r3+8]
  r5 = xor r2, r4
  r6 = addrfunc leaf
  r7 = callind r6(r5, r0)
  condbr r7, b1, b2
b1:
  output r7
  br b2
b2:
  r8 = alloc r0
  store [r8+0], r7
  free r8
  r9 = call helper(r7)
  output r9
  ret
}
`

func TestParseSample(t *testing.T) {
	m, err := Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "sample" || m.Entry != "main" {
		t.Fatalf("header: %s/%s", m.Name, m.Entry)
	}
	if len(m.Globals) != 4 || len(m.Funcs) != 3 {
		t.Fatalf("counts: %d globals, %d funcs", len(m.Globals), len(m.Funcs))
	}
	if g := m.Global("handlers"); g.Size != 16 || len(g.InitFuncs) != 2 {
		t.Fatalf("funcptr table: %+v", g)
	}
	if m.Func("helper").Protected {
		t.Fatal("unprotected attribute lost")
	}
	leaf := m.Func("leaf")
	if len(leaf.Locals) != 1 || leaf.Locals[0].Size != 16 {
		t.Fatalf("locals: %+v", leaf.Locals)
	}
}

func TestRoundTrip(t *testing.T) {
	m1, err := Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{Marshal(m1), m1.String()} {
		m2, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("round trip changed the module:\n%s\nvs\n%s", Marshal(m1), Marshal(m2))
		}
	}
}

func TestMarshalBuilderModule(t *testing.T) {
	// A builder-made module (register-dense, tail calls) must round-trip.
	mb := NewModule("built")
	g := mb.NewFunc("g", 1)
	g.Ret(g.Bin(OpMul, g.Param(0), g.Param(0)))
	f := mb.NewFunc("f", 1)
	f.TailCall("g", f.Param(0))
	main := mb.NewFunc("main", 0)
	x := main.Const(6)
	main.Output(main.Call("f", x))
	main.RetVoid()
	mb.SetEntry("main")
	m1 := mb.MustBuild()

	m2, err := Parse(Marshal(m1))
	if err != nil {
		t.Fatal(err)
	}
	// NRegs may legitimately shrink to the densest numbering; compare the
	// structure that matters.
	if len(m2.Funcs) != len(m1.Funcs) || m2.Entry != m1.Entry {
		t.Fatal("structure lost")
	}
	fi := m2.Func("f")
	last := fi.Blocks[0].Instrs
	if !last[0].Tail {
		t.Fatal("tail call lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"module x\nentry m\nfunc m params=0 {\nb0:\n  bogus r1\n}", "unknown instruction"},
		{"module x\nentry m\nfunc m params=0 {\n  r0 = const 1\n}", "before the first block"},
		{"module x\nentry m\nfunc m params=0 {\nb1:\n  ret\n}", "declared in order"},
		{"module x\nentry m\nglobal g data\nfunc m params=0 {\nb0:\n  ret\n}", "size=N"},
		{"module x\nentry m\nfunc m params=0 {\nb0:\n  ret\n}\n}", "stray"},
		{"module x\nentry m\nfunc m params=0 {\nb0:\n  ret", "unterminated"},
		{"module x\nentry nosuch\nfunc m params=0 {\nb0:\n  ret\n}", "not found"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := "module x # trailing\nentry m\nfunc m params=0 {\nb0:\n  ret # done\n}"
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}
