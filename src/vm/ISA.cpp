//===- vm/ISA.cpp - OmniVM-style RISC instruction set ----------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "vm/ISA.h"

#include "support/Support.h"

using namespace ccomp;
using namespace ccomp::vm;

const char *vm::opMnemonic(VMOp Op) {
  switch (Op) {
  case VMOp::LD_B: return "ld.ib";
  case VMOp::LD_BU: return "ld.ibu";
  case VMOp::LD_H: return "ld.ih";
  case VMOp::LD_HU: return "ld.ihu";
  case VMOp::LD_W: return "ld.iw";
  case VMOp::ST_B: return "st.ib";
  case VMOp::ST_H: return "st.ih";
  case VMOp::ST_W: return "st.iw";
  case VMOp::ADD: return "add.i";
  case VMOp::SUB: return "sub.i";
  case VMOp::MUL: return "mul.i";
  case VMOp::DIV: return "div.i";
  case VMOp::DIVU: return "div.u";
  case VMOp::REM: return "rem.i";
  case VMOp::REMU: return "rem.u";
  case VMOp::AND: return "and.i";
  case VMOp::OR: return "or.i";
  case VMOp::XOR: return "xor.i";
  case VMOp::SLL: return "sll.i";
  case VMOp::SRL: return "srl.i";
  case VMOp::SRA: return "sra.i";
  case VMOp::ADDI: return "addi.i";
  case VMOp::MULI: return "muli.i";
  case VMOp::ANDI: return "andi.i";
  case VMOp::ORI: return "ori.i";
  case VMOp::XORI: return "xori.i";
  case VMOp::SLLI: return "slli.i";
  case VMOp::SRLI: return "srli.i";
  case VMOp::SRAI: return "srai.i";
  case VMOp::MOV: return "mov.i";
  case VMOp::NEG: return "neg.i";
  case VMOp::NOT: return "not.i";
  case VMOp::SXTB: return "sxt.b";
  case VMOp::SXTH: return "sxt.h";
  case VMOp::ZXTB: return "zxt.b";
  case VMOp::ZXTH: return "zxt.h";
  case VMOp::LI: return "li";
  case VMOp::BEQ: return "beq.i";
  case VMOp::BNE: return "bne.i";
  case VMOp::BLT: return "blt.i";
  case VMOp::BLE: return "ble.i";
  case VMOp::BGT: return "bgt.i";
  case VMOp::BGE: return "bge.i";
  case VMOp::BLTU: return "blt.u";
  case VMOp::BLEU: return "ble.u";
  case VMOp::BGTU: return "bgt.u";
  case VMOp::BGEU: return "bge.u";
  case VMOp::BEQI: return "beqi.i";
  case VMOp::BNEI: return "bnei.i";
  case VMOp::BLTI: return "blti.i";
  case VMOp::BLEI: return "blei.i";
  case VMOp::BGTI: return "bgti.i";
  case VMOp::BGEI: return "bgei.i";
  case VMOp::BLTUI: return "blti.u";
  case VMOp::BLEUI: return "blei.u";
  case VMOp::BGTUI: return "bgti.u";
  case VMOp::BGEUI: return "bgei.u";
  case VMOp::JMP: return "jmp";
  case VMOp::CALL: return "call";
  case VMOp::RJR: return "rjr";
  case VMOp::ENTER: return "enter";
  case VMOp::EXIT: return "exit";
  case VMOp::SPILL: return "spill.i";
  case VMOp::RELOAD: return "reload.i";
  case VMOp::EPI: return "epi";
  case VMOp::MCPY: return "mcpy";
  case VMOp::MSET: return "mset";
  case VMOp::SYS: return "sys";
  case VMOp::NumOps: break;
  }
  ccomp_unreachable("bad VM opcode");
}

namespace {
using FK = FieldKind;
struct FieldDesc {
  FK F[MaxFields];
};

constexpr FieldDesc descFor(VMOp Op) {
  constexpr FieldDesc LdSt = {{FK::Reg, FK::Imm, FK::Reg}};
  constexpr FieldDesc RRR = {{FK::Reg, FK::Reg, FK::Reg}};
  constexpr FieldDesc RRI = {{FK::Reg, FK::Reg, FK::Imm}};
  constexpr FieldDesc RR = {{FK::Reg, FK::Reg, FK::None}};
  constexpr FieldDesc RI = {{FK::Reg, FK::Imm, FK::None}};
  constexpr FieldDesc BrRR = {{FK::Reg, FK::Reg, FK::Label}};
  constexpr FieldDesc BrRI = {{FK::Reg, FK::Imm, FK::Label}};
  constexpr FieldDesc Lab = {{FK::Label, FK::None, FK::None}};
  constexpr FieldDesc Fn = {{FK::Func, FK::None, FK::None}};
  constexpr FieldDesc R1 = {{FK::Reg, FK::None, FK::None}};
  constexpr FieldDesc I1 = {{FK::Imm, FK::None, FK::None}};
  constexpr FieldDesc None = {{FK::None, FK::None, FK::None}};

  switch (Op) {
  case VMOp::LD_B: case VMOp::LD_BU: case VMOp::LD_H: case VMOp::LD_HU:
  case VMOp::LD_W: case VMOp::ST_B: case VMOp::ST_H: case VMOp::ST_W:
    return LdSt;
  case VMOp::ADD: case VMOp::SUB: case VMOp::MUL: case VMOp::DIV:
  case VMOp::DIVU: case VMOp::REM: case VMOp::REMU: case VMOp::AND:
  case VMOp::OR: case VMOp::XOR: case VMOp::SLL: case VMOp::SRL:
  case VMOp::SRA:
    return RRR;
  case VMOp::ADDI: case VMOp::MULI: case VMOp::ANDI: case VMOp::ORI:
  case VMOp::XORI: case VMOp::SLLI: case VMOp::SRLI: case VMOp::SRAI:
  case VMOp::MCPY: case VMOp::MSET:
    return RRI;
  case VMOp::MOV: case VMOp::NEG: case VMOp::NOT: case VMOp::SXTB:
  case VMOp::SXTH: case VMOp::ZXTB: case VMOp::ZXTH:
    return RR;
  case VMOp::LI: case VMOp::SPILL: case VMOp::RELOAD:
    return RI;
  case VMOp::BEQ: case VMOp::BNE: case VMOp::BLT: case VMOp::BLE:
  case VMOp::BGT: case VMOp::BGE: case VMOp::BLTU: case VMOp::BLEU:
  case VMOp::BGTU: case VMOp::BGEU:
    return BrRR;
  case VMOp::BEQI: case VMOp::BNEI: case VMOp::BLTI: case VMOp::BLEI:
  case VMOp::BGTI: case VMOp::BGEI: case VMOp::BLTUI: case VMOp::BLEUI:
  case VMOp::BGTUI: case VMOp::BGEUI:
    return BrRI;
  case VMOp::JMP:
    return Lab;
  case VMOp::CALL:
    return Fn;
  case VMOp::RJR:
    return R1;
  case VMOp::ENTER: case VMOp::EXIT: case VMOp::SYS:
    return I1;
  case VMOp::EPI:
  case VMOp::NumOps:
    break;
  }
  return None;
}

/// Everything the field accessors need about one opcode, precomputed.
struct OpInfo {
  FieldDesc D;
  bool Branch;
  FieldLayout L;
};

/// Register fields fill Rd, Rs1, Rs2 in order of appearance; Imm and
/// Label/Func use their dedicated slots. Compare-and-branch
/// instructions have no destination, so their register fields start at
/// Rs1 (matching the interpreter's reads).
constexpr OpInfo infoFor(VMOp Op) {
  OpInfo I{descFor(Op), false,
           {0, {FieldSlot::None, FieldSlot::None, FieldSlot::None}}};
  for (unsigned K = 0; K != MaxFields; ++K)
    I.Branch |= I.D.F[K] == FK::Label;
  while (I.L.NumFields < MaxFields && I.D.F[I.L.NumFields] != FK::None)
    ++I.L.NumFields;
  unsigned RegSeen = I.Branch ? 1 : 0;
  for (unsigned K = 0; K != MaxFields; ++K) {
    switch (I.D.F[K]) {
    case FK::Reg:
      I.L.Slot[K] = RegSeen == 0   ? FieldSlot::Rd
                    : RegSeen == 1 ? FieldSlot::Rs1
                                   : FieldSlot::Rs2;
      ++RegSeen;
      break;
    case FK::Imm:
      I.L.Slot[K] = FieldSlot::Imm;
      break;
    case FK::Label:
    case FK::Func:
      I.L.Slot[K] = FieldSlot::Target;
      break;
    case FK::None:
      break;
    }
  }
  return I;
}

constexpr unsigned NumOpcodes = static_cast<unsigned>(VMOp::NumOps);

struct OpTable {
  OpInfo Ops[NumOpcodes];
};

constexpr OpTable buildOpTable() {
  OpTable T{};
  for (unsigned Op = 0; Op != NumOpcodes; ++Op)
    T.Ops[Op] = infoFor(static_cast<VMOp>(Op));
  return T;
}

constexpr OpTable Table = buildOpTable();

const OpInfo &infoOf(VMOp Op) {
  if (static_cast<unsigned>(Op) >= NumOpcodes)
    ccomp_unreachable("bad VM opcode");
  return Table.Ops[static_cast<unsigned>(Op)];
}

FieldSlot slotOf(const Instr &In, unsigned I) {
  FieldSlot S = I < MaxFields ? infoOf(In.Op).L.Slot[I] : FieldSlot::None;
  if (S == FieldSlot::None)
    ccomp_unreachable("field index out of range");
  return S;
}
} // namespace

const FieldKind *vm::fieldKinds(VMOp Op) { return infoOf(Op).D.F; }

unsigned vm::numFields(VMOp Op) { return infoOf(Op).L.NumFields; }

const FieldLayout &vm::fieldLayout(VMOp Op) { return infoOf(Op).L; }

int64_t vm::getField(const Instr &In, unsigned I) {
  switch (slotOf(In, I)) {
  case FieldSlot::Rd: return In.Rd;
  case FieldSlot::Rs1: return In.Rs1;
  case FieldSlot::Rs2: return In.Rs2;
  case FieldSlot::Imm: return In.Imm;
  case FieldSlot::Target: return In.Target;
  case FieldSlot::None: break;
  }
  ccomp_unreachable("field index out of range");
}

void vm::setField(Instr &In, unsigned I, int64_t V) {
  setFieldAt(In, slotOf(In, I), V);
}

bool vm::isBranch(VMOp Op) { return infoOf(Op).Branch; }

bool vm::isBranchImm(VMOp Op) {
  return Op >= VMOp::BEQI && Op <= VMOp::BGEUI;
}

bool vm::isImmediateForm(VMOp Op) {
  // The surviving primitive under "minus immediates" is LI; SPILL/RELOAD,
  // ENTER/EXIT, MCPY/MSET and SYS are macro forms the experiment keeps.
  if (Op >= VMOp::ADDI && Op <= VMOp::SRAI)
    return true;
  return isBranchImm(Op);
}

const char *vm::regName(unsigned R) {
  static const char *Names[16] = {"n0", "n1", "n2",  "n3", "n4", "n5",
                                  "n6", "n7", "n8",  "n9", "n10", "n11",
                                  "at", "sp", "ra",  "zr"};
  if (R >= 16)
    return "r?";
  return Names[R];
}
