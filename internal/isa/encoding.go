package isa

import (
	"encoding/binary"
	"fmt"
)

// Inst is one decoded WSA instruction. A and B are register operands; Imm is
// the immediate or the PC-relative displacement for branches and calls.
// Branch displacements are measured from the end of the instruction.
type Inst struct {
	Op  Op
	A   byte  // first register operand (dst / compared / base)
	B   byte  // second register operand (src)
	Imm int64 // immediate, displacement, or memory offset
}

// Format classes describe operand layout; they drive both the encoder and
// the decoder.
type format byte

const (
	fmtNone  format = iota // op
	fmtR                   // op reg
	fmtRR                  // op reg reg
	fmtRI32                // op reg imm32
	fmtRI64                // op reg imm64
	fmtRRI32               // op reg reg imm32 (load/store/prefetch)
	fmtRel8                // op rel8
	fmtRel32               // op rel32
)

func opFormat(o Op) format {
	switch o {
	case OpHalt, OpNop, OpRet, OpThrow:
		return fmtNone
	case OpCallR, OpJmpR, OpPush, OpPop:
		return fmtR
	case OpMovRR, OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp, OpMod:
		return fmtRR
	case OpMovI, OpAddI, OpCmpI:
		return fmtRI32
	case OpMovI64:
		return fmtRI64
	case OpLoad, OpStore, OpPrefetch:
		return fmtRRI32
	case OpJmpS, OpJeqS, OpJneS, OpJltS, OpJleS, OpJgtS, OpJgeS:
		return fmtRel8
	case OpJmp, OpJeq, OpJne, OpJlt, OpJle, OpJgt, OpJge, OpCall:
		return fmtRel32
	}
	return 0xFF
}

func formatSize(f format) int {
	switch f {
	case fmtNone:
		return 1
	case fmtR, fmtRel8:
		return 2
	case fmtRR:
		return 3
	case fmtRel32:
		return 5
	case fmtRI32:
		return 6
	case fmtRRI32:
		return 7
	case fmtRI64:
		return 10
	}
	return 0
}

// Size returns the encoded size of the instruction in bytes.
func (in Inst) Size() int {
	f := opFormat(in.Op)
	if f == 0xFF {
		panic(fmt.Sprintf("isa: size of invalid opcode %v", in.Op))
	}
	return formatSize(f)
}

// SizeOf returns the encoded size in bytes of an instruction with opcode o.
func SizeOf(o Op) int {
	f := opFormat(o)
	if f == 0xFF {
		return 0
	}
	return formatSize(f)
}

// MaxInstSize is the largest possible WSA instruction encoding.
const MaxInstSize = 10

// Encode appends the encoding of in to dst and returns the extended slice.
func Encode(dst []byte, in Inst) []byte {
	switch opFormat(in.Op) {
	case fmtNone:
		return append(dst, byte(in.Op))
	case fmtR:
		return append(dst, byte(in.Op), in.A)
	case fmtRR:
		return append(dst, byte(in.Op), in.A, in.B)
	case fmtRI32:
		dst = append(dst, byte(in.Op), in.A)
		return binary.LittleEndian.AppendUint32(dst, uint32(int32(in.Imm)))
	case fmtRI64:
		dst = append(dst, byte(in.Op), in.A)
		return binary.LittleEndian.AppendUint64(dst, uint64(in.Imm))
	case fmtRRI32:
		dst = append(dst, byte(in.Op), in.A, in.B)
		return binary.LittleEndian.AppendUint32(dst, uint32(int32(in.Imm)))
	case fmtRel8:
		return append(dst, byte(in.Op), byte(int8(in.Imm)))
	case fmtRel32:
		dst = append(dst, byte(in.Op))
		return binary.LittleEndian.AppendUint32(dst, uint32(int32(in.Imm)))
	}
	panic(fmt.Sprintf("isa: cannot encode invalid opcode %v", in.Op))
}

// DecodeError reports a byte sequence that is not a valid WSA instruction.
// Hitting one during linear disassembly is how embedded data reveals itself.
type DecodeError struct {
	Offset int // offset the decode was attempted at
	Byte   byte
	Short  bool // true if the buffer ended mid-instruction
}

func (e *DecodeError) Error() string {
	if e.Short {
		return fmt.Sprintf("isa: truncated instruction at offset %#x", e.Offset)
	}
	return fmt.Sprintf("isa: invalid opcode %#02x at offset %#x", e.Byte, e.Offset)
}

// TryDecode is Decode without the error value: it returns the instruction at
// off and its size, or size 0 when nothing decodes there (invalid opcode,
// register operand out of range, or an encoding that runs past the end of
// buf). It never allocates, which is what lets the simulator ask "does this
// offset decode, and how long is it" of every byte of a text page — most of
// which are not instruction starts — and build a DecodeError only for the
// one offset a fault actually reports.
func TryDecode(buf []byte, off int) (Inst, int) {
	if uint(off) >= uint(len(buf)) {
		return Inst{}, 0
	}
	b := buf[off:]
	op := Op(b[0])
	f := opFormat(op)
	size := formatSize(f)
	if size == 0 || size > len(b) {
		return Inst{}, 0
	}
	in := Inst{Op: op}
	switch f {
	case fmtNone:
	case fmtR:
		in.A = b[1]
	case fmtRR:
		in.A, in.B = b[1], b[2]
	case fmtRI32:
		in.A = b[1]
		in.Imm = int64(int32(binary.LittleEndian.Uint32(b[2:])))
	case fmtRI64:
		in.A = b[1]
		in.Imm = int64(binary.LittleEndian.Uint64(b[2:]))
	case fmtRRI32:
		in.A, in.B = b[1], b[2]
		in.Imm = int64(int32(binary.LittleEndian.Uint32(b[3:])))
	case fmtRel8:
		in.Imm = int64(int8(b[1]))
	case fmtRel32:
		in.Imm = int64(int32(binary.LittleEndian.Uint32(b[1:])))
	}
	// Formats without a register operand leave A and B zero.
	if in.A >= NumRegs || in.B >= NumRegs {
		return Inst{}, 0
	}
	return in, size
}

// Decode decodes a single instruction from buf starting at off. It returns
// the instruction and its size. A *DecodeError is returned for invalid
// opcodes or truncated encodings.
func Decode(buf []byte, off int) (Inst, int, error) {
	in, size := TryDecode(buf, off)
	if size != 0 {
		return in, size, nil
	}
	// Say why: past the end, not an opcode, cut short, or a bad register.
	if uint(off) >= uint(len(buf)) {
		return Inst{}, 0, &DecodeError{Offset: off, Short: true}
	}
	if n := SizeOf(Op(buf[off])); n != 0 && off+n > len(buf) {
		return Inst{}, 0, &DecodeError{Offset: off, Short: true}
	}
	return Inst{}, 0, &DecodeError{Offset: off, Byte: buf[off]}
}

// FitsRel8 reports whether a displacement can be encoded in a short branch.
func FitsRel8(disp int64) bool { return disp >= -128 && disp <= 127 }

// FitsRel32 reports whether a displacement can be encoded in a long branch.
func FitsRel32(disp int64) bool { return disp >= -(1<<31) && disp < 1<<31 }

// PatchRel32 overwrites the rel32 field of the instruction encoded at off.
func PatchRel32(buf []byte, off int, disp int64) error {
	if err := CheckRel32(buf, off, disp); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[off+1:], uint32(int32(disp)))
	return nil
}

// CheckRel32 returns the error PatchRel32(buf, off, disp) would return,
// writing nothing.
func CheckRel32(buf []byte, off int, disp int64) error {
	if off >= len(buf) {
		return &DecodeError{Offset: off, Short: true}
	}
	op := Op(buf[off])
	if !FitsRel32(disp) {
		return fmt.Errorf("isa: displacement %d does not fit rel32 at %#x", disp, off)
	}
	if opFormat(op) != fmtRel32 {
		return fmt.Errorf("isa: opcode %v at %#x has no rel32 field", op, off)
	}
	if off+5 > len(buf) {
		return &DecodeError{Offset: off, Short: true}
	}
	return nil
}

// PatchRel8 overwrites the rel8 field of the instruction encoded at off.
func PatchRel8(buf []byte, off int, disp int64) error {
	if err := CheckRel8(buf, off, disp); err != nil {
		return err
	}
	buf[off+1] = byte(int8(disp))
	return nil
}

// CheckRel8 returns the error PatchRel8(buf, off, disp) would return,
// writing nothing.
func CheckRel8(buf []byte, off int, disp int64) error {
	if off >= len(buf) {
		return &DecodeError{Offset: off, Short: true}
	}
	op := Op(buf[off])
	if opFormat(op) != fmtRel8 {
		return fmt.Errorf("isa: opcode %v at %#x has no rel8 field", op, off)
	}
	if !FitsRel8(disp) {
		return fmt.Errorf("isa: displacement %d does not fit rel8 at %#x", disp, off)
	}
	if off+2 > len(buf) {
		return &DecodeError{Offset: off, Short: true}
	}
	return nil
}

func (in Inst) String() string {
	switch opFormat(in.Op) {
	case fmtNone:
		return in.Op.String()
	case fmtR:
		return fmt.Sprintf("%s r%d", in.Op, in.A)
	case fmtRR:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.A, in.B)
	case fmtRI32, fmtRI64:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.A, in.Imm)
	case fmtRRI32:
		if in.Op == OpStore {
			return fmt.Sprintf("%s [r%d%+d], r%d", in.Op, in.A, in.Imm, in.B)
		}
		return fmt.Sprintf("%s r%d, [r%d%+d]", in.Op, in.B, in.A, in.Imm)
	case fmtRel8, fmtRel32:
		return fmt.Sprintf("%s %+d", in.Op, in.Imm)
	}
	return fmt.Sprintf("%s ?", in.Op)
}
