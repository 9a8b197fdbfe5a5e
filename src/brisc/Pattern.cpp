//===- brisc/Pattern.cpp - BRISC instruction patterns --------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "brisc/Pattern.h"

#include "support/Error.h"
#include "support/Support.h"
#include "vm/Asm.h"

#include <sstream>

using namespace ccomp;
using namespace ccomp::brisc;
using vm::FieldKind;
using vm::Instr;
using vm::VMOp;

bool brisc::fitsWidth(Width W, int64_t V) {
  switch (W) {
  case Width::Nib: return V >= 0 && V <= 15;
  case Width::NibX4: return V % 4 == 0 && V >= 0 && V <= 60;
  case Width::B1: return V >= -128 && V <= 127;
  case Width::B1X4: return V % 4 == 0 && V >= -512 && V <= 508;
  case Width::B2: return V >= -32768 && V <= 32767;
  case Width::B4: return V >= INT32_MIN && V <= INT32_MAX;
  }
  ccomp_unreachable("bad width");
}

unsigned brisc::widthNibbles(Width W) {
  switch (W) {
  case Width::Nib:
  case Width::NibX4:
    return 1;
  case Width::B1:
  case Width::B1X4:
    return 2;
  case Width::B2:
    return 4;
  case Width::B4:
    return 8;
  }
  ccomp_unreachable("bad width");
}

/// True for opcodes that may transfer control out of a pattern.
static bool isControlOp(VMOp Op) {
  if (vm::isBranch(Op))
    return true;
  switch (Op) {
  case VMOp::CALL:
  case VMOp::RJR:
  case VMOp::EPI:
    return true;
  default:
    return false;
  }
}

bool Pattern::allDataOps() const {
  for (const SpecInstr &E : Elems)
    if (isControlOp(E.Op))
      return false;
  return true;
}

bool Pattern::wellFormed() const {
  if (Elems.empty())
    return false;
  for (size_t I = 0; I + 1 < Elems.size(); ++I)
    if (isControlOp(Elems[I].Op))
      return false;
  for (const SpecInstr &E : Elems) {
    unsigned N = vm::numFields(E.Op);
    const FieldKind *FK = vm::fieldKinds(E.Op);
    for (unsigned F = 0; F != N; ++F) {
      if (FK[F] == FieldKind::Label && E.specialized(F))
        return false; // Branch targets are never burned in.
      if (FK[F] == FieldKind::Reg && !E.specialized(F) &&
          E.Widths[F] != Width::Nib)
        return false;
      if ((FK[F] == FieldKind::Label || FK[F] == FieldKind::Func) &&
          !E.specialized(F) && E.Widths[F] != Width::B2)
        return false;
    }
  }
  return true;
}

bool Pattern::matches(const Instr *Seq, size_t N) const {
  if (N < Elems.size())
    return false;
  for (size_t I = 0; I != Elems.size(); ++I) {
    const SpecInstr &E = Elems[I];
    const Instr &In = Seq[I];
    if (In.Op != E.Op)
      return false;
    unsigned NF = vm::numFields(E.Op);
    for (unsigned F = 0; F != NF; ++F) {
      int64_t V = vm::getField(In, F);
      if (E.specialized(F)) {
        if (V != E.SpecVals[F])
          return false;
      } else if (!fitsWidth(E.Widths[F], V)) {
        return false;
      }
    }
  }
  return true;
}

unsigned Pattern::operandBytes() const {
  // Nibble-width fields are packed together first (two per byte), then
  // byte-width fields follow; this is how the paper fits "sp and 24 into
  // a single operand byte".
  unsigned Nibbles = 0, Bytes = 0;
  for (const SpecInstr &E : Elems) {
    unsigned NF = vm::numFields(E.Op);
    for (unsigned F = 0; F != NF; ++F) {
      if (E.specialized(F))
        continue;
      unsigned N = widthNibbles(E.Widths[F]);
      if (N == 1)
        ++Nibbles;
      else
        Bytes += N / 2;
    }
  }
  return (Nibbles + 1) / 2 + Bytes;
}

unsigned Pattern::dictEntryBytes() const {
  ByteWriter W;
  serialize(W);
  return static_cast<unsigned>(W.size());
}

std::string Pattern::key() const {
  ByteWriter W;
  serialize(W);
  const std::vector<uint8_t> &B = W.bytes();
  return std::string(B.begin(), B.end());
}

void Pattern::serialize(ByteWriter &W) const {
  W.writeVarU(Elems.size());
  for (const SpecInstr &E : Elems) {
    W.writeU8(static_cast<uint8_t>(E.Op));
    W.writeU8(E.SpecMask);
    unsigned NF = vm::numFields(E.Op);
    // Width codes pack two per byte (3 bits each suffices; use 4).
    uint8_t WPacked = 0;
    unsigned WCount = 0;
    for (unsigned F = 0; F != NF; ++F) {
      if (E.specialized(F))
        continue;
      WPacked |= static_cast<uint8_t>(E.Widths[F]) << (4 * (WCount & 1));
      if (WCount & 1) {
        W.writeU8(WPacked);
        WPacked = 0;
      }
      ++WCount;
    }
    if (WCount & 1)
      W.writeU8(WPacked);
    for (unsigned F = 0; F != NF; ++F)
      if (E.specialized(F))
        W.writeVarS(E.SpecVals[F]);
  }
}

Pattern Pattern::deserialize(ByteReader &R) {
  Pattern P;
  size_t N = R.readVarU();
  for (size_t I = 0; I != N; ++I) {
    SpecInstr E;
    E.Op = static_cast<VMOp>(R.readU8());
    if (E.Op >= VMOp::NumOps)
      decodeFail("brisc: bad opcode in dictionary");
    E.SpecMask = R.readU8();
    unsigned NF = vm::numFields(E.Op);
    unsigned WCount = 0;
    uint8_t WPacked = 0;
    for (unsigned F = 0; F != NF; ++F) {
      if (E.specialized(F))
        continue;
      if ((WCount & 1) == 0)
        WPacked = R.readU8();
      E.Widths[F] = static_cast<Width>((WPacked >> (4 * (WCount & 1))) & 15);
      if (E.Widths[F] > Width::B4)
        decodeFail("brisc: bad width in dictionary");
      ++WCount;
    }
    for (unsigned F = 0; F != NF; ++F)
      if (E.specialized(F))
        E.SpecVals[F] = static_cast<int32_t>(R.readVarS());
    P.Elems.push_back(E);
  }
  return P;
}

Pattern Pattern::base(VMOp Op) {
  Pattern P;
  SpecInstr E;
  E.Op = Op;
  unsigned NF = vm::numFields(Op);
  const FieldKind *FK = vm::fieldKinds(Op);
  for (unsigned F = 0; F != NF; ++F) {
    switch (FK[F]) {
    case FieldKind::Reg:
      E.Widths[F] = Width::Nib;
      break;
    case FieldKind::Imm:
      E.Widths[F] = Width::B4;
      break;
    case FieldKind::Label:
    case FieldKind::Func:
      E.Widths[F] = Width::B2;
      break;
    case FieldKind::None:
      break;
    }
  }
  P.Elems.push_back(E);
  return P;
}

const std::vector<Pattern> &brisc::basePatterns() {
  static const std::vector<Pattern> Base = [] {
    std::vector<Pattern> V;
    for (unsigned I = 0; I != static_cast<unsigned>(VMOp::NumOps); ++I)
      V.push_back(Pattern::base(static_cast<VMOp>(I)));
    return V;
  }();
  return Base;
}

std::string Pattern::str() const {
  std::ostringstream OS;
  if (Elems.size() > 1)
    OS << '<';
  for (size_t I = 0; I != Elems.size(); ++I) {
    const SpecInstr &E = Elems[I];
    if (I)
      OS << ',';
    OS << '[' << vm::opMnemonic(E.Op);
    unsigned NF = vm::numFields(E.Op);
    const FieldKind *FK = vm::fieldKinds(E.Op);
    for (unsigned F = 0; F != NF; ++F) {
      OS << (F ? "," : " ");
      if (!E.specialized(F)) {
        OS << '*';
        if (E.Widths[F] == Width::NibX4 || E.Widths[F] == Width::B1X4)
          OS << "x4";
        continue;
      }
      if (FK[F] == FieldKind::Reg)
        OS << vm::regName(static_cast<unsigned>(E.SpecVals[F]));
      else
        OS << E.SpecVals[F];
    }
    OS << ']';
  }
  if (Elems.size() > 1)
    OS << '>';
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Operand packing
//===----------------------------------------------------------------------===//

namespace {

/// Streaming nibble/byte packer mirroring operandBytes().
class NibblePacker {
public:
  explicit NibblePacker(ByteWriter &W) : W(W) {}

  void putNibble(uint8_t V) {
    if (HavePending) {
      W.writeU8(static_cast<uint8_t>(Pending | (V << 4)));
      HavePending = false;
    } else {
      Pending = V & 15;
      HavePending = true;
    }
  }

  void flush() {
    if (HavePending) {
      W.writeU8(Pending);
      HavePending = false;
    }
  }

  void putBytes(int64_t V, unsigned N) {
    flush();
    for (unsigned I = 0; I != N; ++I)
      W.writeU8(static_cast<uint8_t>(V >> (8 * I)));
  }

private:
  ByteWriter &W;
  uint8_t Pending = 0;
  bool HavePending = false;
};

class NibbleUnpacker {
public:
  NibbleUnpacker(const uint8_t *Bytes, size_t N) : Bytes(Bytes), N(N) {}

  uint8_t getNibble() {
    if (HavePending) {
      HavePending = false;
      return Pending;
    }
    uint8_t B = next();
    Pending = B >> 4;
    HavePending = true;
    return B & 15;
  }

  void align() { HavePending = false; }

  int64_t getBytes(unsigned Count, bool SignExtend) {
    align();
    uint64_t V = 0;
    for (unsigned I = 0; I != Count; ++I)
      V |= static_cast<uint64_t>(next()) << (8 * I);
    if (SignExtend && Count < 8) {
      uint64_t SignBit = 1ull << (8 * Count - 1);
      if (V & SignBit)
        V |= ~((SignBit << 1) - 1);
    }
    return static_cast<int64_t>(V);
  }

  size_t consumed() const { return Pos; }

private:
  uint8_t next() {
    if (Pos >= N)
      decodeFail("brisc: truncated operand bytes");
    return Bytes[Pos++];
  }

  const uint8_t *Bytes;
  size_t N;
  size_t Pos = 0;
  uint8_t Pending = 0;
  bool HavePending = false;
};

} // namespace

void brisc::packOperands(const Pattern &P, const Instr *Seq,
                         ByteWriter &W) {
  // Phase 1: nibble-width fields, packed two per byte.
  NibblePacker Pk(W);
  for (size_t I = 0; I != P.Elems.size(); ++I) {
    const SpecInstr &E = P.Elems[I];
    unsigned NF = vm::numFields(E.Op);
    for (unsigned F = 0; F != NF; ++F) {
      if (E.specialized(F) || widthNibbles(E.Widths[F]) != 1)
        continue;
      int64_t V = vm::getField(Seq[I], F);
      Pk.putNibble(static_cast<uint8_t>(
          E.Widths[F] == Width::NibX4 ? V / 4 : V));
    }
  }
  Pk.flush();
  // Phase 2: byte-width fields.
  for (size_t I = 0; I != P.Elems.size(); ++I) {
    const SpecInstr &E = P.Elems[I];
    unsigned NF = vm::numFields(E.Op);
    for (unsigned F = 0; F != NF; ++F) {
      if (E.specialized(F) || widthNibbles(E.Widths[F]) == 1)
        continue;
      int64_t V = vm::getField(Seq[I], F);
      switch (E.Widths[F]) {
      case Width::B1:
        Pk.putBytes(V, 1);
        break;
      case Width::B1X4:
        Pk.putBytes(V / 4, 1);
        break;
      case Width::B2:
        Pk.putBytes(V, 2);
        break;
      case Width::B4:
        Pk.putBytes(V, 4);
        break;
      default:
        ccomp_unreachable("bad byte width");
      }
    }
  }
}

size_t brisc::unpackOperands(const Pattern &P, const uint8_t *Bytes,
                             size_t N, std::vector<Instr> &Out) {
  NibbleUnpacker Up(Bytes, N);
  size_t Start = Out.size();
  for (const SpecInstr &E : P.Elems) {
    Instr In;
    In.Op = E.Op;
    Out.push_back(In);
  }
  // Phase 1: nibble fields (packed first), plus specialized values.
  for (size_t I = 0; I != P.Elems.size(); ++I) {
    const SpecInstr &E = P.Elems[I];
    Instr &In = Out[Start + I];
    const vm::FieldLayout &L = vm::fieldLayout(E.Op);
    for (unsigned F = 0; F != L.NumFields; ++F) {
      if (E.specialized(F)) {
        vm::setFieldAt(In, L.Slot[F], E.SpecVals[F]);
        continue;
      }
      if (widthNibbles(E.Widths[F]) != 1)
        continue;
      int64_t V = Up.getNibble();
      if (E.Widths[F] == Width::NibX4)
        V *= 4;
      vm::setFieldAt(In, L.Slot[F], V);
    }
  }
  Up.align();
  // Phase 2: byte fields.
  for (size_t I = 0; I != P.Elems.size(); ++I) {
    const SpecInstr &E = P.Elems[I];
    Instr &In = Out[Start + I];
    const vm::FieldLayout &L = vm::fieldLayout(E.Op);
    for (unsigned F = 0; F != L.NumFields; ++F) {
      if (E.specialized(F) || widthNibbles(E.Widths[F]) == 1)
        continue;
      int64_t V;
      switch (E.Widths[F]) {
      case Width::B1:
        V = Up.getBytes(1, true);
        break;
      case Width::B1X4:
        V = Up.getBytes(1, true) * 4;
        break;
      case Width::B2:
        V = Up.getBytes(2, true);
        break;
      case Width::B4:
        V = Up.getBytes(4, true);
        break;
      default:
        ccomp_unreachable("bad width");
      }
      vm::setFieldAt(In, L.Slot[F], V);
    }
  }
  return Up.consumed();
}
