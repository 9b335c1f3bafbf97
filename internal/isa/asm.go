package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses a small assembly dialect into a Program. Syntax, one
// instruction per line:
//
//	; comment               # comment
//	label:
//	movi  r1, 42
//	fmovi f0, 1.5
//	add   r1, r2, r3        ; rd, ra, rb
//	addi  r1, r2, 8
//	ld    r1, [r2+4]        ; load word
//	fst   [r2+0], f3        ; store word
//	cmp   r1, r2
//	jnz   label
//	hlt
//
// Registers are r0..r15 and f0..f15. Branch targets are labels. Integer
// immediates accept 0x-prefixed hex.
func Assemble(src string) (Program, error) {
	type pending struct {
		instr int
		label string
		line  int
	}
	var prog Program
	labels := map[string]int{}
	var fixups []pending

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly followed by an instruction on the same line).
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			name := strings.TrimSpace(line[:i])
			if !isIdent(name) {
				return nil, fmt.Errorf("isa: line %d: bad label %q", ln+1, name)
			}
			if _, dup := labels[name]; dup {
				return nil, fmt.Errorf("isa: line %d: duplicate label %q", ln+1, name)
			}
			labels[name] = len(prog)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		mnemonic, rest, _ := strings.Cut(line, " ")
		mnemonic = strings.ToLower(strings.TrimSpace(mnemonic))
		ops := splitOperands(rest)
		in, labelRef, err := parseInstr(mnemonic, ops)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %v", ln+1, err)
		}
		if labelRef != "" {
			fixups = append(fixups, pending{len(prog), labelRef, ln + 1})
		}
		prog = append(prog, in)
	}
	for _, f := range fixups {
		target, ok := labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: line %d: undefined label %q", f.line, f.label)
		}
		prog[f.instr].Imm = int64(target)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustAssemble is Assemble that panics on error; for package-level kernel
// definitions whose sources are compile-time constants.
func MustAssemble(src string) Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseIntReg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, fmt.Errorf("expected integer register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad integer register %q", s)
	}
	return uint8(n), nil
}

func parseFPReg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'f' && s[0] != 'F') {
		return 0, fmt.Errorf("expected FP register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad FP register %q", s)
	}
	return uint8(n), nil
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

// parseMem parses "[rN+disp]" or "[rN]" or "[rN-disp]".
func parseMem(s string) (base uint8, disp int64, err error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, fmt.Errorf("expected memory operand [rN+disp], got %q", s)
	}
	inner := s[1 : len(s)-1]
	sign := int64(1)
	regPart, dispPart := inner, ""
	if i := strings.IndexAny(inner, "+-"); i > 0 {
		regPart, dispPart = inner[:i], inner[i+1:]
		if inner[i] == '-' {
			sign = -1
		}
	}
	base, err = parseIntReg(strings.TrimSpace(regPart))
	if err != nil {
		return 0, 0, err
	}
	if dispPart != "" {
		d, err := parseImm(strings.TrimSpace(dispPart))
		if err != nil {
			return 0, 0, err
		}
		disp = sign * d
	}
	return base, disp, nil
}

// mnemonicOps maps each mnemonic in the opcode table to its opcode.
var mnemonicOps = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); op < NumOps; op++ {
		m[opDefs[op].name] = op
	}
	return m
}()

// parseInstr parses one instruction. Its operand list follows from the
// opcode table: Rd if the op writes a register, then Ra — a [rN+disp]
// memory operand for loads and stores — then Rb, then the immediate if
// the op takes one; a branch takes a label or an absolute target.
func parseInstr(mnemonic string, args []string) (Instr, string, error) {
	op, ok := mnemonicOps[mnemonic]
	if !ok {
		return Instr{}, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	in := Instr{Op: op}
	d := &opDefs[op]
	var fields []func(string) error
	reg := func(dst *uint8, f File) func(string) error {
		return func(s string) (err error) {
			if f == FPFile {
				*dst, err = parseFPReg(s)
			} else {
				*dst, err = parseIntReg(s)
			}
			return err
		}
	}
	if d.rd != NoFile {
		fields = append(fields, reg(&in.Rd, d.rd))
	}
	if isMemOp(op) {
		fields = append(fields, func(s string) (err error) {
			in.Ra, in.Imm, err = parseMem(s)
			return err
		})
	} else if d.ra != NoFile {
		fields = append(fields, reg(&in.Ra, d.ra))
	}
	if d.rb != NoFile {
		fields = append(fields, reg(&in.Rb, d.rb))
	}
	label := ""
	switch {
	case d.imm:
		fields = append(fields, func(s string) (err error) {
			in.Imm, err = parseImm(s)
			return err
		})
	case op == FMovI:
		fields = append(fields, func(s string) (err error) {
			if in.F, err = strconv.ParseFloat(s, 64); err != nil {
				return fmt.Errorf("bad FP immediate %q", s)
			}
			return nil
		})
	case IsBranch(op):
		fields = append(fields, func(s string) (err error) {
			if isIdent(s) {
				label = s
				return nil
			}
			in.Imm, err = parseImm(s)
			return err
		})
	}
	if len(args) != len(fields) {
		return in, "", fmt.Errorf("%s wants %d operands, got %d", mnemonic, len(fields), len(args))
	}
	for i, parse := range fields {
		if err := parse(args[i]); err != nil {
			return in, "", err
		}
	}
	return in, label, nil
}

// isMemOp reports whether op addresses memory at R[Ra]+Imm.
func isMemOp(op Op) bool {
	c := ClassOf(op)
	return c == ClassLoad || c == ClassStore
}

// Disassemble renders one instruction in the Assemble dialect.
func Disassemble(in Instr) string {
	if in.Op >= NumOps {
		return fmt.Sprintf("?%d", in.Op)
	}
	d := &opDefs[in.Op]
	reg := func(f File, n uint8) string {
		if f == FPFile {
			return fmt.Sprintf("f%d", n)
		}
		return fmt.Sprintf("r%d", n)
	}
	var args []string
	if d.rd != NoFile {
		args = append(args, reg(d.rd, in.Rd))
	}
	switch {
	case isMemOp(in.Op) && in.Imm == 0:
		args = append(args, fmt.Sprintf("[r%d]", in.Ra))
	case isMemOp(in.Op) && in.Imm < 0:
		args = append(args, fmt.Sprintf("[r%d-%d]", in.Ra, -in.Imm))
	case isMemOp(in.Op):
		args = append(args, fmt.Sprintf("[r%d+%d]", in.Ra, in.Imm))
	case d.ra != NoFile:
		args = append(args, reg(d.ra, in.Ra))
	}
	if d.rb != NoFile {
		args = append(args, reg(d.rb, in.Rb))
	}
	switch {
	case d.imm, IsBranch(in.Op):
		args = append(args, fmt.Sprint(in.Imm))
	case in.Op == FMovI:
		args = append(args, fmt.Sprint(in.F))
	}
	if len(args) == 0 {
		return d.name
	}
	return d.name + " " + strings.Join(args, ", ")
}
