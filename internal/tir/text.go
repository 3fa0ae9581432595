package tir

// The TIR textual format: a small assembly-like syntax so programs can be
// written in files and compiled with cmd/r2cc, and so modules round-trip
// for debugging. Grammar (line oriented, '#' comments):
//
//	module NAME
//	entry FUNC
//	global NAME data|defaultparam size=N [init=0x..,0x..]
//	global NAME funcptr init=FUNC[,FUNC...]
//	func NAME params=N [unprotected] {
//	  locals NAME:SIZE[, NAME:SIZE...]
//	bLABEL:
//	  rN = const 0x..
//	  rN = rM
//	  rN = OP rA, rB                     (add sub mul div rem and or xor shl
//	                                      shr eq neq lt leq gt geq)
//	  rN = load [rA+OFF]
//	  store [rA+OFF], rB
//	  rN = addrlocal NAME
//	  rN = addrglobal NAME
//	  rN = addrfunc NAME
//	  rN = call F(r..)   |  call F(r..)
//	  rN = callind rA(r..)
//	  tailcall F(r..)
//	  rN = alloc rA
//	  free rA
//	  output rA
//	  br bL
//	  condbr rA, bL, bM
//	  ret [rA]
//	}

import (
	"fmt"
	"strconv"
	"strings"
)

// String renders the module in the parseable textual format (Marshal).
func (m *Module) String() string { return Marshal(m) }

// Marshal renders the module in the parseable textual format.
func Marshal(m *Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	fmt.Fprintf(&sb, "entry %s\n\n", m.Entry)
	for _, g := range m.Globals {
		switch {
		case g.Kind == GlobalFuncPtr && len(g.InitFuncs) > 0:
			fmt.Fprintf(&sb, "global %s funcptr init=%s\n", g.Name, strings.Join(g.InitFuncs, ","))
		case g.Kind == GlobalFuncPtr:
			fmt.Fprintf(&sb, "global %s funcptr init=%s\n", g.Name, g.InitFunc)
		default:
			kind := "data"
			if g.Kind == GlobalDefaultParam {
				kind = "defaultparam"
			}
			fmt.Fprintf(&sb, "global %s %s size=%d", g.Name, kind, g.Size)
			if len(g.Init) > 0 {
				parts := make([]string, len(g.Init))
				for i, w := range g.Init {
					parts[i] = fmt.Sprintf("%#x", w)
				}
				fmt.Fprintf(&sb, " init=%s", strings.Join(parts, ","))
			}
			sb.WriteByte('\n')
		}
	}
	for _, f := range m.Funcs {
		attr := ""
		if !f.Protected {
			attr = " unprotected"
		}
		fmt.Fprintf(&sb, "\nfunc %s params=%d%s {\n", f.Name, f.NParams, attr)
		if len(f.Locals) > 0 {
			parts := make([]string, len(f.Locals))
			for i, l := range f.Locals {
				parts[i] = fmt.Sprintf("%s:%d", l.Name, l.Size)
			}
			fmt.Fprintf(&sb, "  locals %s\n", strings.Join(parts, ", "))
		}
		for bi, b := range f.Blocks {
			fmt.Fprintf(&sb, "b%d:\n", bi)
			for _, in := range b.Instrs {
				fmt.Fprintf(&sb, "  %s\n", in)
			}
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

func regList(rs []Reg) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("r%d", r)
	}
	return strings.Join(parts, ", ")
}

// String renders one instruction in the parseable textual format.
func (in Instr) String() string {
	switch {
	case in.Op == OpConst:
		return fmt.Sprintf("r%d = const %#x", in.Dst, in.Imm)
	case in.Op == OpMov:
		return fmt.Sprintf("r%d = r%d", in.Dst, in.A)
	case in.Op.IsBinary():
		return fmt.Sprintf("r%d = %s r%d, r%d", in.Dst, in.Op, in.A, in.B)
	case in.Op == OpLoad:
		return fmt.Sprintf("r%d = load [r%d%+d]", in.Dst, in.A, in.Off)
	case in.Op == OpStore:
		return fmt.Sprintf("store [r%d%+d], r%d", in.A, in.Off, in.B)
	case in.Op == OpAddrLocal:
		return fmt.Sprintf("r%d = addrlocal $%d", in.Dst, in.Local)
	case in.Op == OpAddrGlobal:
		return fmt.Sprintf("r%d = addrglobal %s", in.Dst, in.Sym)
	case in.Op == OpAddrFunc:
		return fmt.Sprintf("r%d = addrfunc %s", in.Dst, in.Sym)
	case in.Op == OpAlloc:
		return fmt.Sprintf("r%d = alloc r%d", in.Dst, in.A)
	case in.Op == OpFree:
		return fmt.Sprintf("free r%d", in.A)
	case in.Op == OpOutput:
		return fmt.Sprintf("output r%d", in.A)
	case in.Op == OpCall && in.Tail:
		return fmt.Sprintf("tailcall %s(%s)", in.Sym, regList(in.Args))
	case in.Op == OpCall && in.Sym == "":
		if in.Dst != NoReg {
			return fmt.Sprintf("r%d = callind r%d(%s)", in.Dst, in.A, regList(in.Args))
		}
		return fmt.Sprintf("callind r%d(%s)", in.A, regList(in.Args))
	case in.Op == OpCall:
		if in.Dst != NoReg {
			return fmt.Sprintf("r%d = call %s(%s)", in.Dst, in.Sym, regList(in.Args))
		}
		return fmt.Sprintf("call %s(%s)", in.Sym, regList(in.Args))
	case in.Op == OpBr:
		return fmt.Sprintf("br b%d", in.Target)
	case in.Op == OpCondBr:
		return fmt.Sprintf("condbr r%d, b%d, b%d", in.A, in.Target, in.Else)
	case in.Op == OpRet && in.HasArg:
		return fmt.Sprintf("ret r%d", in.A)
	case in.Op == OpRet:
		return "ret"
	}
	return fmt.Sprintf("?%v", in.Op)
}

// parseError annotates a syntax error with its line number.
type parseError struct {
	line int
	msg  string
}

func (e *parseError) Error() string { return fmt.Sprintf("tir: line %d: %s", e.line, e.msg) }

// Parse reads the textual format back into a verified module.
func Parse(src string) (*Module, error) {
	p := &parser{m: &Module{}}
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = strings.TrimSpace(line[:idx])
		}
		if line == "" {
			continue
		}
		if err := p.line(i+1, line); err != nil {
			return nil, err
		}
	}
	if p.f != nil {
		return nil, fmt.Errorf("tir: unterminated function %q", p.f.Name)
	}
	if err := p.m.Verify(); err != nil {
		return nil, err
	}
	return p.m, nil
}

type parser struct {
	m *Module
	f *Function
}

var binOps = map[string]Op{
	"add": OpAdd, "sub": OpSub, "mul": OpMul, "div": OpDiv, "rem": OpRem,
	"and": OpAnd, "or": OpOr, "xor": OpXor, "shl": OpShl, "shr": OpShr,
	"eq": OpEq, "neq": OpNeq, "lt": OpLt, "leq": OpLeq, "gt": OpGt, "geq": OpGeq,
}

func (p *parser) line(n int, line string) error {
	fail := func(format string, args ...any) error {
		return &parseError{n, fmt.Sprintf(format, args...)}
	}
	fields := strings.Fields(line)
	switch {
	case fields[0] == "module":
		if len(fields) != 2 {
			return fail("module wants a name")
		}
		p.m.Name = fields[1]
	case fields[0] == "entry":
		if len(fields) != 2 {
			return fail("entry wants a function name")
		}
		p.m.Entry = fields[1]
	case fields[0] == "global":
		return p.global(n, fields)
	case fields[0] == "func":
		return p.funcHeader(n, fields)
	case line == "}":
		if p.f == nil {
			return fail("stray '}'")
		}
		p.f = nil
	case p.f == nil:
		return fail("instruction outside a function: %q", line)
	case fields[0] == "locals":
		return p.locals(n, strings.TrimPrefix(line, "locals "))
	case strings.HasSuffix(fields[0], ":") && strings.HasPrefix(fields[0], "b"):
		id, err := strconv.Atoi(strings.TrimSuffix(fields[0][1:], ":"))
		if err != nil || id != len(p.f.Blocks) {
			return fail("blocks must be declared in order (got %q, want b%d:)", fields[0], len(p.f.Blocks))
		}
		p.f.Blocks = append(p.f.Blocks, &Block{})
	default:
		if len(p.f.Blocks) == 0 {
			return fail("instruction before the first block label")
		}
		in, err := parseInstr(line, p.f)
		if err != nil {
			return fail("%v", err)
		}
		b := p.f.Blocks[len(p.f.Blocks)-1]
		b.Instrs = append(b.Instrs, in)
	}
	return nil
}

func (p *parser) global(n int, fields []string) error {
	fail := func(format string, args ...any) error {
		return &parseError{n, fmt.Sprintf(format, args...)}
	}
	if len(fields) < 3 {
		return fail("global wants: global NAME KIND ...")
	}
	g := &Global{Name: fields[1]}
	opts := map[string]string{}
	for _, f := range fields[3:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fail("bad global option %q", f)
		}
		opts[k] = v
	}
	switch fields[2] {
	case "data":
		g.Kind = GlobalData
	case "defaultparam":
		g.Kind = GlobalDefaultParam
	case "funcptr":
		g.Kind = GlobalFuncPtr
		targets := strings.Split(opts["init"], ",")
		if len(targets) == 0 || targets[0] == "" {
			return fail("funcptr global wants init=FUNC[,FUNC]")
		}
		if len(targets) == 1 {
			g.InitFunc = targets[0]
		} else {
			g.InitFuncs = targets
		}
		g.Size = uint64(len(targets)) * 8
		p.m.Globals = append(p.m.Globals, g)
		return nil
	default:
		return fail("unknown global kind %q", fields[2])
	}
	sz, err := strconv.ParseUint(opts["size"], 0, 64)
	if err != nil {
		return fail("global wants size=N")
	}
	g.Size = sz
	if init := opts["init"]; init != "" {
		for _, w := range strings.Split(init, ",") {
			v, err := strconv.ParseUint(w, 0, 64)
			if err != nil {
				return fail("bad init word %q", w)
			}
			g.Init = append(g.Init, v)
		}
	}
	p.m.Globals = append(p.m.Globals, g)
	return nil
}

func (p *parser) funcHeader(n int, fields []string) error {
	fail := func(format string, args ...any) error {
		return &parseError{n, fmt.Sprintf(format, args...)}
	}
	if p.f != nil {
		return fail("nested function")
	}
	if len(fields) < 3 || fields[len(fields)-1] != "{" {
		return fail("func wants: func NAME params=N [unprotected] {")
	}
	f := &Function{Name: fields[1], Protected: true}
	for _, opt := range fields[2 : len(fields)-1] {
		switch {
		case strings.HasPrefix(opt, "params="):
			v, err := strconv.Atoi(strings.TrimPrefix(opt, "params="))
			if err != nil {
				return fail("bad params count")
			}
			f.NParams = v
			f.NRegs = v
		case opt == "unprotected":
			f.Protected = false
		default:
			return fail("unknown func attribute %q", opt)
		}
	}
	p.m.Funcs = append(p.m.Funcs, f)
	p.f = f
	return nil
}

func (p *parser) locals(n int, rest string) error {
	for _, part := range strings.Split(rest, ",") {
		name, size, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return &parseError{n, fmt.Sprintf("bad local %q (want NAME:SIZE)", part)}
		}
		sz, err := strconv.ParseUint(size, 0, 64)
		if err != nil {
			return &parseError{n, fmt.Sprintf("bad local size %q", size)}
		}
		p.f.Locals = append(p.f.Locals, Local{Name: name, Size: sz})
	}
	return nil
}

// parseReg parses "rN", growing the function's register file as needed.
func parseReg(s string, f *Function) (Reg, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	v, err := strconv.Atoi(s[1:])
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	if v >= f.NRegs {
		f.NRegs = v + 1
	}
	return Reg(v), nil
}

func parseBlockRef(s string) (int, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "b") {
		return 0, fmt.Errorf("bad block ref %q", s)
	}
	return strconv.Atoi(s[1:])
}

// parseMem parses "[rN+OFF]" / "[rN-OFF]" / "[rN]".
func parseMem(s string, f *Function) (Reg, int64, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	sep := strings.IndexAny(inner[1:], "+-")
	if sep == -1 {
		r, err := parseReg(inner, f)
		return r, 0, err
	}
	sep++
	r, err := parseReg(inner[:sep], f)
	if err != nil {
		return 0, 0, err
	}
	off, err := strconv.ParseInt(inner[sep:], 0, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad displacement in %q", s)
	}
	return r, off, nil
}

// parseCallTail parses "NAME(r1, r2)" or "rN(r1, r2)".
func parseCallTail(s string, f *Function) (sym string, fn Reg, args []Reg, err error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open == -1 || !strings.HasSuffix(s, ")") {
		return "", 0, nil, fmt.Errorf("bad call %q", s)
	}
	target := strings.TrimSpace(s[:open])
	argstr := strings.TrimSpace(s[open+1 : len(s)-1])
	fn = NoReg
	if r, rerr := parseReg(target, f); rerr == nil && isRegToken(target) {
		fn = r
	} else {
		sym = target
	}
	if argstr != "" {
		for _, a := range strings.Split(argstr, ",") {
			r, err := parseReg(a, f)
			if err != nil {
				return "", 0, nil, err
			}
			args = append(args, r)
		}
	}
	return sym, fn, args, nil
}

func isRegToken(s string) bool {
	if len(s) < 2 || s[0] != 'r' {
		return false
	}
	for _, c := range s[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func parseInstr(line string, f *Function) (Instr, error) {
	// Assignment forms: "rN = ...".
	if lhs, rhs, ok := strings.Cut(line, " = "); ok && isRegToken(strings.TrimSpace(lhs)) {
		dst, err := parseReg(lhs, f)
		if err != nil {
			return Instr{}, err
		}
		return parseRHS(dst, strings.TrimSpace(rhs), f)
	}

	fields := strings.Fields(line)
	switch fields[0] {
	case "store":
		rest := strings.TrimPrefix(line, "store ")
		memStr, valStr, ok := strings.Cut(rest, ",")
		if !ok {
			return Instr{}, fmt.Errorf("store wants [mem], reg")
		}
		base, off, err := parseMem(memStr, f)
		if err != nil {
			return Instr{}, err
		}
		val, err := parseReg(valStr, f)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpStore, A: base, Off: off, B: val}, nil
	case "free", "output":
		r, err := parseReg(fields[1], f)
		if err != nil {
			return Instr{}, err
		}
		op := OpFree
		if fields[0] == "output" {
			op = OpOutput
		}
		return Instr{Op: op, A: r}, nil
	case "call", "callind":
		sym, fn, args, err := parseCallTail(strings.TrimPrefix(strings.TrimPrefix(line, "callind"), "call"), f)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpCall, Dst: NoReg, Sym: sym, A: fn, Args: args}, nil
	case "tailcall":
		sym, _, args, err := parseCallTail(strings.TrimPrefix(line, "tailcall"), f)
		if err != nil {
			return Instr{}, err
		}
		if sym == "" {
			return Instr{}, fmt.Errorf("tailcall must be direct")
		}
		return Instr{Op: OpCall, Dst: NoReg, Sym: sym, Args: args, Tail: true}, nil
	case "br":
		t, err := parseBlockRef(fields[1])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpBr, Target: t}, nil
	case "condbr":
		rest := strings.TrimPrefix(line, "condbr ")
		parts := strings.Split(rest, ",")
		if len(parts) != 3 {
			return Instr{}, fmt.Errorf("condbr wants cond, then, else")
		}
		c, err := parseReg(parts[0], f)
		if err != nil {
			return Instr{}, err
		}
		t, err := parseBlockRef(parts[1])
		if err != nil {
			return Instr{}, err
		}
		e, err := parseBlockRef(parts[2])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpCondBr, A: c, Target: t, Else: e}, nil
	case "ret":
		if len(fields) == 1 {
			return Instr{Op: OpRet}, nil
		}
		r, err := parseReg(fields[1], f)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpRet, A: r, HasArg: true}, nil
	}
	return Instr{}, fmt.Errorf("unknown instruction %q", line)
}

func parseRHS(dst Reg, rhs string, f *Function) (Instr, error) {
	fields := strings.Fields(rhs)
	switch {
	case fields[0] == "const":
		v, err := strconv.ParseUint(fields[1], 0, 64)
		if err != nil {
			return Instr{}, fmt.Errorf("bad const %q", fields[1])
		}
		return Instr{Op: OpConst, Dst: dst, Imm: v}, nil
	case isRegToken(fields[0]) && len(fields) == 1:
		src, err := parseReg(fields[0], f)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpMov, Dst: dst, A: src}, nil
	case fields[0] == "load":
		base, off, err := parseMem(strings.TrimPrefix(rhs, "load "), f)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpLoad, Dst: dst, A: base, Off: off}, nil
	case fields[0] == "addrlocal":
		name := fields[1]
		if strings.HasPrefix(name, "$") {
			idx, err := strconv.Atoi(name[1:])
			if err != nil {
				return Instr{}, fmt.Errorf("bad local index %q", name)
			}
			return Instr{Op: OpAddrLocal, Dst: dst, Local: idx}, nil
		}
		for i, l := range f.Locals {
			if l.Name == name {
				return Instr{Op: OpAddrLocal, Dst: dst, Local: i}, nil
			}
		}
		return Instr{}, fmt.Errorf("unknown local %q", name)
	case fields[0] == "addrglobal":
		return Instr{Op: OpAddrGlobal, Dst: dst, Sym: fields[1]}, nil
	case fields[0] == "addrfunc":
		return Instr{Op: OpAddrFunc, Dst: dst, Sym: fields[1]}, nil
	case fields[0] == "alloc":
		r, err := parseReg(fields[1], f)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpAlloc, Dst: dst, A: r}, nil
	case fields[0] == "call" || fields[0] == "callind":
		sym, fn, args, err := parseCallTail(strings.TrimPrefix(strings.TrimPrefix(rhs, "callind"), "call"), f)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpCall, Dst: dst, Sym: sym, A: fn, Args: args}, nil
	default:
		if op, ok := binOps[fields[0]]; ok {
			rest := strings.TrimSpace(strings.TrimPrefix(rhs, fields[0]))
			aStr, bStr, okc := strings.Cut(rest, ",")
			if !okc {
				return Instr{}, fmt.Errorf("%s wants two operands", fields[0])
			}
			a, err := parseReg(aStr, f)
			if err != nil {
				return Instr{}, err
			}
			b, err := parseReg(bStr, f)
			if err != nil {
				return Instr{}, err
			}
			return Instr{Op: op, Dst: dst, A: a, B: b}, nil
		}
	}
	return Instr{}, fmt.Errorf("unknown expression %q", rhs)
}
