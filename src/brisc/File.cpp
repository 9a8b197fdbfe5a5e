//===- brisc/File.cpp - BRISC serialization and the loader --------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "brisc/Brisc.h"

#include "support/ByteIO.h"
#include "support/Error.h"
#include "support/Support.h"

#include <algorithm>

using namespace ccomp;
using namespace ccomp::brisc;
using vm::Instr;
using vm::VMOp;

namespace {
constexpr uint32_t Magic = 0x52424343; // "CCBR".
} // namespace

std::vector<uint8_t> BriscProgram::serialize(bool IncludeData) const {
  ByteWriter W;
  W.writeU32(Magic);
  W.writeU8(IncludeData ? 1 : 0);

  // Dictionary: base patterns are implicit.
  W.writeVarU(Added.size());
  for (const Pattern &P : Added)
    P.serialize(W);

  // Markov successor tables (one per pattern + the block-start context).
  if (Successors.numContexts() != numPatterns() + 1)
    reportFatal("brisc: successor table count mismatch");
  for (uint32_t Ctx = 0; Ctx != Successors.numContexts(); ++Ctx) {
    SuccessorTable::List L = Successors.of(Ctx);
    W.writeVarU(L.size());
    int64_t Prev = 0;
    for (uint32_t Id : L) {
      W.writeVarS(static_cast<int64_t>(Id) - Prev);
      Prev = Id;
    }
  }

  // Functions.
  W.writeVarU(Funcs.size());
  for (const BriscFunction &F : Funcs) {
    W.writeVarU(F.Code.size());
    W.writeBytes(F.Code);
    W.writeVarU(F.BBOffsets.size());
    uint32_t Prev = 0;
    for (uint32_t Off : F.BBOffsets) {
      W.writeVarU(Off - Prev);
      Prev = Off;
    }
  }
  W.writeVarU(Entry);

  if (IncludeData) {
    for (const BriscFunction &F : Funcs)
      W.writeStr(F.Name);
    W.writeVarU(Globals.size());
    for (const vm::VMGlobal &G : Globals) {
      W.writeStr(G.Name);
      W.writeVarU(G.Addr);
      W.writeVarU(G.Size);
      W.writeVarU(G.Init.size());
      W.writeBytes(G.Init);
    }
    W.writeVarU(GlobalBase);
    W.writeVarU(GlobalEnd);
  }
  return W.take();
}

namespace {

BriscProgram parseOrThrow(ByteSpan Bytes) {
  BriscProgram B;
  ByteReader R(Bytes);
  if (R.readU32() != Magic)
    decodeFail("brisc: bad magic");
  bool HasData = R.readU8() != 0;

  size_t NumAdded = R.readVarU();
  // Every entry takes at least one byte; clamp the untrusted count.
  B.Added.reserve(std::min(NumAdded, R.remaining()));
  for (size_t I = 0; I != NumAdded; ++I) {
    Pattern P = Pattern::deserialize(R);
    if (!P.wellFormed())
      decodeFail("brisc: malformed pattern in dictionary");
    B.Added.push_back(std::move(P));
  }

  const size_t NumPats = B.numPatterns();
  for (size_t Ctx = 0; Ctx != NumPats + 1; ++Ctx) {
    B.Successors.addContext();
    size_t N = R.readVarU();
    int64_t Prev = 0;
    for (size_t I = 0; I != N; ++I) {
      Prev += R.readVarS();
      if (Prev < 0 || static_cast<size_t>(Prev) >= NumPats)
        decodeFail("brisc: bad successor id");
      B.Successors.push(static_cast<uint32_t>(Prev));
    }
  }

  size_t NumFuncs = R.readVarU();
  for (size_t I = 0; I != NumFuncs; ++I) {
    BriscFunction F;
    F.Name = "f" + std::to_string(I);
    size_t Len = R.readVarU();
    F.Code = R.readBytes(Len);
    size_t NBB = R.readVarU();
    if (NBB > F.Code.size() + 1)
      decodeFail("brisc: more block starts than code bytes");
    uint32_t Prev = 0;
    for (size_t K = 0; K != NBB; ++K) {
      Prev += static_cast<uint32_t>(R.readVarU());
      F.BBOffsets.push_back(Prev);
    }
    B.Funcs.push_back(std::move(F));
  }
  B.Entry = static_cast<uint32_t>(R.readVarU());

  if (HasData) {
    for (BriscFunction &F : B.Funcs)
      F.Name = R.readStr();
    size_t NG = R.readVarU();
    for (size_t I = 0; I != NG; ++I) {
      vm::VMGlobal G;
      G.Name = R.readStr();
      G.Addr = static_cast<uint32_t>(R.readVarU());
      G.Size = static_cast<uint32_t>(R.readVarU());
      size_t InitLen = R.readVarU();
      G.Init = R.readBytes(InitLen);
      B.Globals.push_back(std::move(G));
    }
    B.GlobalBase = static_cast<uint32_t>(R.readVarU());
    B.GlobalEnd = static_cast<uint32_t>(R.readVarU());
  }
  if (!R.atEnd())
    decodeFail("brisc: trailing bytes");
  return B;
}

} // namespace

Result<BriscProgram> BriscProgram::parse(ByteSpan Bytes) {
  return tryDecode([&] { return parseOrThrow(Bytes); });
}

BriscProgram BriscProgram::deserialize(ByteSpan Bytes) {
  Result<BriscProgram> R = parse(Bytes);
  if (!R.ok())
    reportFatal(R.error().message());
  return R.take();
}

//===----------------------------------------------------------------------===//
// Loader (BRISC -> decoded VM program)
//===----------------------------------------------------------------------===//

namespace {

vm::VMProgram decodeToVMOrThrow(const BriscProgram &B) {
  vm::VMProgram P;
  uint32_t BBCtx = B.bbStartContext();
  // Decode into one scratch buffer, reserved so that appending rarely
  // reallocates (every instance takes at least one byte and most expand
  // to one instruction), and give each function an exact-size copy.
  std::vector<Instr> Code;

  for (const BriscFunction &BF : B.Funcs) {
    vm::VMFunction F;
    F.Name = BF.Name;

    std::vector<uint32_t> InstrAtOff(BF.Code.size() + 1, ~0u);
    Code.clear();
    Code.reserve(BF.Code.size());
    uint32_t Ctx = BBCtx;
    size_t Off = 0;
    size_t NextBB = 0;
    while (Off < BF.Code.size()) {
      if (NextBB < BF.BBOffsets.size() && BF.BBOffsets[NextBB] == Off) {
        Ctx = BBCtx;
        ++NextBB;
      }
      InstrAtOff[Off] = static_cast<uint32_t>(Code.size());
      uint8_t OpByte = BF.Code[Off];
      size_t OpLen = 1;
      uint32_t PatId;
      if (OpByte == 255) {
        if (Off + 3 > BF.Code.size())
          decodeFail("brisc: truncated escape opcode");
        PatId = static_cast<uint32_t>(BF.Code[Off + 1] |
                                      (BF.Code[Off + 2] << 8));
        OpLen = 3;
      } else {
        PatId = B.Successors.lookup(Ctx, OpByte);
        if (PatId == ~0u)
          decodeFail("brisc: opcode byte out of context range");
      }
      if (PatId >= B.numPatterns())
        decodeFail("brisc: bad pattern id");
      const Pattern &Pat = B.pattern(PatId);
      size_t Used = unpackOperands(Pat, BF.Code.data() + Off + OpLen,
                                   BF.Code.size() - (Off + OpLen), Code);
      Off += OpLen + Used;
      Ctx = PatId;
    }

    // Branch targets currently hold byte offsets; map them to labels
    // (one label per block-start offset).
    F.LabelPos.clear();
    for (uint32_t BBOff : BF.BBOffsets) {
      if (BBOff >= InstrAtOff.size() || InstrAtOff[BBOff] == ~0u)
        decodeFail("brisc: block offset not at a slot boundary");
      F.LabelPos.push_back(InstrAtOff[BBOff]);
    }
    for (Instr &In : Code) {
      if (!vm::isBranch(In.Op))
        continue;
      uint32_t TOff = In.Target;
      auto It = std::lower_bound(BF.BBOffsets.begin(), BF.BBOffsets.end(),
                                 TOff);
      if (It == BF.BBOffsets.end() || *It != TOff)
        decodeFail("brisc: branch to a non-block offset");
      In.Target = static_cast<uint32_t>(It - BF.BBOffsets.begin());
    }
    F.Code.assign(Code.begin(), Code.end());
    if (!F.Code.empty() && F.Code[0].Op == VMOp::ENTER)
      F.FrameSize = static_cast<uint32_t>(F.Code[0].Imm);
    P.Functions.push_back(std::move(F));
  }

  P.Entry = B.Entry;
  P.Globals = B.Globals;
  P.GlobalBase = B.GlobalBase;
  P.GlobalEnd = B.GlobalEnd;
  return P;
}

} // namespace

Result<vm::VMProgram> brisc::tryDecodeToVM(const BriscProgram &B) {
  return tryDecode([&] { return decodeToVMOrThrow(B); });
}

vm::VMProgram brisc::decodeToVM(const BriscProgram &B) {
  Result<vm::VMProgram> R = tryDecodeToVM(B);
  if (!R.ok())
    reportFatal(R.error().message());
  return R.take();
}

BriscLayout brisc::layoutOf(const BriscProgram &B) {
  BriscLayout L;
  // Fixed part: everything before the first function's code bytes.
  std::vector<uint8_t> Full = B.serialize(/*IncludeData=*/false);
  size_t CodeAndMaps = 0;
  for (const BriscFunction &F : B.Funcs) {
    CodeAndMaps += F.Code.size();
    CodeAndMaps += 1 + F.BBOffsets.size(); // Approximate map bytes.
  }
  size_t Fixed = Full.size() > CodeAndMaps ? Full.size() - CodeAndMaps : 0;
  L.FixedBytes = static_cast<uint32_t>(Fixed);
  uint32_t Base = L.FixedBytes;
  for (const BriscFunction &F : B.Funcs) {
    L.FuncBase.push_back(Base);
    Base += static_cast<uint32_t>(F.Code.size());
  }
  L.TotalBytes = Base;
  return L;
}
