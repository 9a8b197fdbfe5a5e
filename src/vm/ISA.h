//===- vm/ISA.h - OmniVM-style RISC instruction set -------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register virtual machine BRISC compresses: a 32-bit RISC with 16
/// integer registers (n0..n11, at, sp, ra, zr), register-displacement
/// addressing, immediate ALU forms, compare-and-branch, and the paper's
/// macro-instructions (enter/exit/spill/reload/epi plus block move/set).
/// This is the stand-in for OmniVM (Adl-Tabatabai et al., PLDI'96).
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_VM_ISA_H
#define CCOMP_VM_ISA_H

#include <cstdint>

namespace ccomp {
namespace vm {

/// Register names. n0..n3 are caller-saved argument/result registers,
/// n4..n11 are callee-saved, at is the assembler temporary, zr reads 0.
enum Reg : uint8_t {
  N0 = 0, N1, N2, N3, N4, N5, N6, N7, N8, N9, N10, N11,
  AT = 12,
  SP = 13,
  RA = 14,
  ZR = 15,
};

/// Base instruction set. Immediate forms are separate opcodes so the
/// de-tuning experiment (section 6) can remove them wholesale.
enum class VMOp : uint8_t {
  // Loads: rd, imm(rs1). Sub-word loads extend per the U suffix.
  LD_B, LD_BU, LD_H, LD_HU, LD_W,
  // Stores: rd (value), imm(rs1).
  ST_B, ST_H, ST_W,

  // Three-register ALU: rd, rs1, rs2.
  ADD, SUB, MUL, DIV, DIVU, REM, REMU,
  AND, OR, XOR, SLL, SRL, SRA,

  // Register-immediate ALU: rd, rs1, imm.
  ADDI, MULI, ANDI, ORI, XORI, SLLI, SRLI, SRAI,

  // Moves and unaries: rd, rs1.
  MOV, NEG, NOT, SXTB, SXTH, ZXTB, ZXTH,

  // Load immediate: rd, imm32.
  LI,

  // Compare-and-branch, register-register: rs1, rs2, label.
  BEQ, BNE, BLT, BLE, BGT, BGE, BLTU, BLEU, BGTU, BGEU,
  // Compare-and-branch, register-immediate: rs1, imm, label.
  BEQI, BNEI, BLTI, BLEI, BGTI, BGEI, BLTUI, BLEUI, BGTUI, BGEUI,

  JMP,  ///< label.
  CALL, ///< function index; sets ra.
  RJR,  ///< rs1: jump through register (function return).

  // Macro-instructions.
  ENTER,  ///< imm: sp -= imm.
  EXIT,   ///< imm: sp += imm.
  SPILL,  ///< rd, imm: store rd at sp+imm (prologue save).
  RELOAD, ///< rd, imm: load rd from sp+imm (epilogue restore).
  EPI,    ///< Whole epilogue: reloads, exit, rjr ra. BRISC-only.
  MCPY,   ///< rd=dst, rs1=src, imm=len: block copy.
  MSET,   ///< rd=dst, rs1=value byte, imm=len: block fill.

  SYS, ///< imm: system call, arguments in n0..; result in n0.

  NumOps
};

/// System call numbers (SYS imm).
enum class Sys : int32_t {
  Exit = 0,     ///< n0 = exit code.
  PutInt = 1,   ///< n0 = value, printed in decimal.
  PutChar = 2,  ///< n0 = character.
  PutStr = 3,   ///< n0 = address of NUL-terminated string.
  Alloc = 4,    ///< n0 = byte count; returns address in n0.
};

/// Kinds of instruction fields, in assembly operand order. These drive
/// BRISC's operand specialization and packing.
enum class FieldKind : uint8_t {
  None,
  Reg,   ///< 4-bit register number.
  Imm,   ///< 32-bit immediate (frame offsets, constants, lengths).
  Label, ///< Branch target: label index within the function.
  Func,  ///< Call target: function index within the program.
};

/// Maximum operand fields of any instruction.
constexpr unsigned MaxFields = 3;

/// A decoded instruction. Field mapping depends on the opcode; see
/// fieldKinds(). Rd doubles as the stored value register for ST_* and as
/// the destination for everything else.
struct Instr {
  VMOp Op = VMOp::NumOps;
  uint8_t Rd = 0;
  uint8_t Rs1 = 0;
  uint8_t Rs2 = 0;
  int32_t Imm = 0;
  uint32_t Target = 0; ///< Label index (branches/JMP) or function (CALL).

  bool operator==(const Instr &O) const {
    return Op == O.Op && Rd == O.Rd && Rs1 == O.Rs1 && Rs2 == O.Rs2 &&
           Imm == O.Imm && Target == O.Target;
  }
};

/// Returns the mnemonic ("ld.iw", "add.i", ...).
const char *opMnemonic(VMOp Op);

/// Returns the operand field kinds of \p Op in assembly order;
/// unused slots are FieldKind::None.
const FieldKind *fieldKinds(VMOp Op);

/// Number of operand fields of \p Op.
unsigned numFields(VMOp Op);

/// Reads operand field \p I (assembly order) from \p In.
int64_t getField(const Instr &In, unsigned I);

/// Writes operand field \p I (assembly order) of \p In.
void setField(Instr &In, unsigned I, int64_t V);

/// Where an operand field is stored in Instr.
enum class FieldSlot : uint8_t { Rd, Rs1, Rs2, Imm, Target, None };

/// An opcode's operand fields, precomputed: how many, and where each
/// lives (what getField/setField resolve per call).
struct FieldLayout {
  uint8_t NumFields;
  FieldSlot Slot[MaxFields];
};
const FieldLayout &fieldLayout(VMOp Op);

/// Writes \p V to the field stored at \p S, truncated as setField does.
inline void setFieldAt(Instr &In, FieldSlot S, int64_t V) {
  switch (S) {
  case FieldSlot::Rd: In.Rd = static_cast<uint8_t>(V); break;
  case FieldSlot::Rs1: In.Rs1 = static_cast<uint8_t>(V); break;
  case FieldSlot::Rs2: In.Rs2 = static_cast<uint8_t>(V); break;
  case FieldSlot::Imm: In.Imm = static_cast<int32_t>(V); break;
  case FieldSlot::Target: In.Target = static_cast<uint32_t>(V); break;
  case FieldSlot::None: break;
  }
}

/// True for compare-and-branch / JMP (instructions with a Label field).
bool isBranch(VMOp Op);

/// True for the register-immediate compare-and-branch forms.
bool isBranchImm(VMOp Op);

/// True for opcodes removed by the "minus immediates" de-tuning
/// (immediate ALU forms and immediate branches; LI is the surviving
/// primitive).
bool isImmediateForm(VMOp Op);

/// Register name ("n0".."n11", "at", "sp", "ra", "zr").
const char *regName(unsigned R);

} // namespace vm
} // namespace ccomp

#endif // CCOMP_VM_ISA_H
