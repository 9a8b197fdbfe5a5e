//===- brisc/Compress.cpp - BRISC greedy dictionary construction -------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The compressor scans the program repeatedly. Each pass generates
// candidate patterns (one-field operand specializations, width
// narrowings, and combinations of adjacent slots), estimates each
// candidate's program-size reduction P and decompressor-table cost W,
// adopts the K best candidates with positive benefit B = P - W, and
// rewrites the program to use them. It stops after a pass that adopts
// fewer than K patterns. Finally the slot stream is emitted through the
// order-1 Markov opcode coder.
//
//===----------------------------------------------------------------------===//

#include "brisc/Brisc.h"
#include "brisc/CostModel.h"

#include "support/Support.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace ccomp;
using namespace ccomp::brisc;
using vm::FieldKind;
using vm::Instr;
using vm::VMOp;

namespace {

/// A run of concrete instructions currently represented by one pattern.
struct Slot {
  uint32_t PatId = 0;
  uint32_t Begin = 0; ///< Index of the first concrete instruction.
  uint32_t Count = 1;
};

/// Per-function compression state.
struct FuncState {
  std::string Name;
  std::vector<Instr> Concrete;
  std::vector<uint32_t> LabelPos;
  std::vector<Slot> Slots;
  std::vector<uint8_t> BBStart; ///< Per concrete instruction.
};

struct Candidate {
  Pattern P;
  int64_t GrossSave = 0;
  uint32_t Uses = 0;
};

class Compressor {
public:
  Compressor(const vm::VMProgram &Prog, const CompressOptions &Opts,
             CompressStats *Stats)
      : Prog(Prog), Opts(Opts), Stats(Stats) {}

  BriscProgram run();

private:
  void initState();
  void rewriteEpilogues(FuncState &FS);
  void buildSlots(FuncState &FS);
  unsigned runPass();
  void generateFromSlot(FuncState &FS, size_t SlotIdx);
  void addCandidate(Pattern P, int64_t Save);
  void adopt(const Pattern &P);
  void rewriteCombination(uint32_t PatId);
  void rewriteSpecializations(const std::vector<uint32_t> &NewIds);
  void compactDictionary();
  void emit(BriscProgram &Out);

  unsigned slotBytes(const Slot &S) const {
    return Pats[S.PatId].instanceBytes();
  }

  /// One-field value specializations of \p P rooted at the concrete
  /// sequence \p Seq (for combination pair generation).
  std::vector<Pattern> oneFieldSpecs(const Pattern &P, const Instr *Seq);

  const vm::VMProgram &Prog;
  const CompressOptions &Opts;
  CompressStats *Stats;

  std::vector<FuncState> Funcs;
  std::vector<Pattern> Pats;
  std::unordered_map<std::string, uint32_t> PatIds;
  std::unordered_set<std::string> EverTested;
  unsigned EffectiveK = 20;

  std::unordered_map<std::string, Candidate> Cands;
};

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

void Compressor::initState() {
  // Base dictionary: one fully general pattern per opcode.
  for (unsigned I = 0; I != static_cast<unsigned>(VMOp::NumOps); ++I) {
    Pattern P = Pattern::base(static_cast<VMOp>(I));
    PatIds[P.key()] = static_cast<uint32_t>(Pats.size());
    Pats.push_back(std::move(P));
  }

  for (const vm::VMFunction &F : Prog.Functions) {
    FuncState FS;
    FS.Name = F.Name;
    FS.Concrete = F.Code;
    FS.LabelPos = F.LabelPos;
    if (Opts.EnableEpi)
      rewriteEpilogues(FS);
    FS.BBStart.assign(FS.Concrete.size() + 1, 0);
    if (!FS.Concrete.empty())
      FS.BBStart[0] = 1;
    for (uint32_t L : FS.LabelPos)
      FS.BBStart[L] = 1;
    for (size_t I = 0; I + 1 < FS.Concrete.size(); ++I)
      if (FS.Concrete[I].Op == VMOp::CALL)
        FS.BBStart[I + 1] = 1; // Return addresses must be decodable.
    buildSlots(FS);
    Funcs.push_back(std::move(FS));
  }
}

void Compressor::rewriteEpilogues(FuncState &FS) {
  // Match the code generator's epilogue (reload*, exit?, rjr ra) at the
  // function's end against the prologue metadata, and fold it into the
  // single special-case macro-instruction "epi" (the paper's only
  // hand-added dictionary entry).
  vm::VMFunction Tmp;
  Tmp.Code = FS.Concrete;
  vm::FuncMeta Meta = vm::deriveMeta(Tmp);

  size_t N = FS.Concrete.size();
  if (N == 0 || FS.Concrete[N - 1].Op != VMOp::RJR ||
      FS.Concrete[N - 1].Rd != vm::RA)
    return;
  size_t EpiLen = 1;
  size_t Pos = N - 1;
  uint32_t Frame = Meta.FrameSize;
  if (Frame != 0) {
    if (Pos == 0 || FS.Concrete[Pos - 1].Op != VMOp::EXIT ||
        FS.Concrete[Pos - 1].Imm != static_cast<int32_t>(Frame))
      return;
    --Pos;
    ++EpiLen;
  }
  // Reloads, one per prologue save (any order; verify the set).
  std::set<std::pair<uint8_t, int32_t>> Want;
  for (const vm::FuncMeta::Save &S : Meta.Saves)
    Want.insert({S.Reg, S.Off});
  size_t NeedReloads = Want.size();
  for (size_t I = 0; I != NeedReloads; ++I) {
    if (Pos == 0 || FS.Concrete[Pos - 1].Op != VMOp::RELOAD)
      return;
    --Pos;
    ++EpiLen;
    if (!Want.erase({FS.Concrete[Pos].Rd, FS.Concrete[Pos].Imm}))
      return;
  }
  if (!Want.empty())
    return;
  // Labels may point at the epilogue start but not inside it.
  for (uint32_t L : FS.LabelPos)
    if (L > Pos && L < N)
      return;
  FS.Concrete.resize(Pos);
  Instr Epi;
  Epi.Op = VMOp::EPI;
  FS.Concrete.push_back(Epi);
  for (uint32_t &L : FS.LabelPos)
    if (L >= FS.Concrete.size())
      L = static_cast<uint32_t>(FS.Concrete.size() - 1);
}

void Compressor::buildSlots(FuncState &FS) {
  FS.Slots.clear();
  for (uint32_t I = 0; I != FS.Concrete.size(); ++I) {
    Slot S;
    S.PatId = static_cast<uint32_t>(FS.Concrete[I].Op);
    S.Begin = I;
    S.Count = 1;
    FS.Slots.push_back(S);
  }
}

//===----------------------------------------------------------------------===//
// Candidate generation
//===----------------------------------------------------------------------===//

std::vector<Pattern> Compressor::oneFieldSpecs(const Pattern &P,
                                               const Instr *Seq) {
  std::vector<Pattern> Out;
  for (size_t E = 0; E != P.Elems.size(); ++E) {
    const SpecInstr &El = P.Elems[E];
    unsigned NF = vm::numFields(El.Op);
    const FieldKind *FK = vm::fieldKinds(El.Op);
    for (unsigned F = 0; F != NF; ++F) {
      if (El.specialized(F))
        continue;
      if (FK[F] == FieldKind::Label)
        continue; // Branch targets are never burned in.
      Pattern Q = P;
      SpecInstr &QE = Q.Elems[E];
      QE.SpecMask |= 1u << F;
      QE.SpecVals[F] = static_cast<int32_t>(vm::getField(Seq[E], F));
      Out.push_back(std::move(Q));
    }
  }
  return Out;
}

void Compressor::addCandidate(Pattern P, int64_t Save) {
  if (Save <= 0)
    return;
  std::string Key = P.key();
  if (PatIds.count(Key))
    return; // Already in the dictionary.
  auto It = Cands.find(Key);
  if (It == Cands.end()) {
    Candidate C;
    C.P = std::move(P);
    C.GrossSave = Save;
    C.Uses = 1;
    bool New = EverTested.insert(Key).second;
    if (New && Stats)
      ++Stats->CandidatesTested;
    Cands.emplace(std::move(Key), std::move(C));
    return;
  }
  It->second.GrossSave += Save;
  ++It->second.Uses;
}

void Compressor::generateFromSlot(FuncState &FS, size_t SlotIdx) {
  Slot &S = FS.Slots[SlotIdx];
  const Pattern &P = Pats[S.PatId];
  const Instr *Seq = FS.Concrete.data() + S.Begin;
  unsigned Cur = P.instanceBytes();

  if (Opts.EnableSpecialization) {
    // One-field value specializations.
    for (size_t E = 0; E != P.Elems.size(); ++E) {
      const SpecInstr &El = P.Elems[E];
      unsigned NF = vm::numFields(El.Op);
      const FieldKind *FK = vm::fieldKinds(El.Op);
      for (unsigned F = 0; F != NF; ++F) {
        if (El.specialized(F) || FK[F] == FieldKind::Label)
          continue;
        Pattern Q = P;
        SpecInstr &QE = Q.Elems[E];
        QE.SpecMask |= 1u << F;
        QE.SpecVals[F] = static_cast<int32_t>(vm::getField(Seq[E], F));
        unsigned NewBytes = Q.instanceBytes();
        addCandidate(std::move(Q), static_cast<int64_t>(Cur) - NewBytes);
      }
    }
    // Width narrowings of immediate fields.
    for (size_t E = 0; E != P.Elems.size(); ++E) {
      const SpecInstr &El = P.Elems[E];
      unsigned NF = vm::numFields(El.Op);
      const FieldKind *FK = vm::fieldKinds(El.Op);
      for (unsigned F = 0; F != NF; ++F) {
        if (El.specialized(F) || FK[F] != FieldKind::Imm)
          continue;
        int64_t V = vm::getField(Seq[E], F);
        static const Width Narrower[] = {Width::B2, Width::B1X4,
                                         Width::B1, Width::NibX4,
                                         Width::Nib};
        for (Width W : Narrower) {
          if (widthNibbles(W) >= widthNibbles(El.Widths[F]))
            continue;
          if (!fitsWidth(W, V))
            continue;
          Pattern Q = P;
          Q.Elems[E].Widths[F] = W;
          unsigned NewBytes = Q.instanceBytes();
          addCandidate(std::move(Q), static_cast<int64_t>(Cur) - NewBytes);
        }
      }
    }
  }

  if (!Opts.EnableCombination || SlotIdx + 1 >= FS.Slots.size())
    return;
  const Pattern &PA = P;
  Slot &T = FS.Slots[SlotIdx + 1];
  if (FS.BBStart[T.Begin])
    return; // Never swallow a block boundary.
  if (!PA.allDataOps())
    return; // Control flow may only end a pattern.
  const Pattern &PB = Pats[T.PatId];
  if (PA.Elems.size() + PB.Elems.size() > Opts.MaxCombinedElems)
    return;
  const Instr *SeqB = FS.Concrete.data() + T.Begin;
  unsigned CurPair = Cur + PB.instanceBytes();

  std::vector<Pattern> As = oneFieldSpecs(PA, Seq);
  As.push_back(PA);
  std::vector<Pattern> Bs = oneFieldSpecs(PB, SeqB);
  Bs.push_back(PB);
  for (const Pattern &A : As) {
    for (const Pattern &B : Bs) {
      Pattern Q;
      Q.Elems = A.Elems;
      Q.Elems.insert(Q.Elems.end(), B.Elems.begin(), B.Elems.end());
      unsigned NewBytes = Q.instanceBytes();
      addCandidate(std::move(Q),
                   static_cast<int64_t>(CurPair) - NewBytes);
    }
  }
}

//===----------------------------------------------------------------------===//
// Adoption and rewriting
//===----------------------------------------------------------------------===//

void Compressor::adopt(const Pattern &P) {
  PatIds[P.key()] = static_cast<uint32_t>(Pats.size());
  Pats.push_back(P);
}

void Compressor::rewriteCombination(uint32_t PatId) {
  const Pattern &P = Pats[PatId];
  size_t Len = P.Elems.size();
  for (FuncState &FS : Funcs) {
    std::vector<Slot> NewSlots;
    NewSlots.reserve(FS.Slots.size());
    size_t I = 0;
    while (I < FS.Slots.size()) {
      const Slot &S = FS.Slots[I];
      // Try to cover slots I..J whose concrete run matches P exactly.
      bool Merged = false;
      if (S.Begin + Len <= FS.Concrete.size() &&
          P.matches(FS.Concrete.data() + S.Begin, Len)) {
        // The run must align with slot boundaries and stay inside the
        // basic block.
        size_t J = I;
        uint32_t Covered = 0;
        unsigned CurBytes = 0;
        bool Aligns = true;
        while (Covered < Len && J < FS.Slots.size()) {
          if (J != I && FS.BBStart[FS.Slots[J].Begin]) {
            Aligns = false;
            break;
          }
          Covered += FS.Slots[J].Count;
          CurBytes += slotBytes(FS.Slots[J]);
          ++J;
        }
        if (Aligns && Covered == Len &&
            P.instanceBytes() < CurBytes) {
          Slot NS;
          NS.PatId = PatId;
          NS.Begin = S.Begin;
          NS.Count = static_cast<uint32_t>(Len);
          NewSlots.push_back(NS);
          I = J;
          Merged = true;
        }
      }
      if (!Merged) {
        NewSlots.push_back(S);
        ++I;
      }
    }
    FS.Slots = std::move(NewSlots);
  }
}

void Compressor::rewriteSpecializations(const std::vector<uint32_t> &NewIds) {
  // Index the new patterns by (first opcode, element count).
  std::map<std::pair<uint8_t, size_t>, std::vector<uint32_t>> Index;
  for (uint32_t Id : NewIds) {
    const Pattern &P = Pats[Id];
    Index[{static_cast<uint8_t>(P.Elems[0].Op), P.Elems.size()}]
        .push_back(Id);
  }
  for (FuncState &FS : Funcs) {
    for (Slot &S : FS.Slots) {
      auto It = Index.find({static_cast<uint8_t>(
                                FS.Concrete[S.Begin].Op),
                            S.Count});
      if (It == Index.end())
        continue;
      unsigned Best = slotBytes(S);
      uint32_t BestId = S.PatId;
      for (uint32_t Id : It->second) {
        const Pattern &P = Pats[Id];
        if (P.instanceBytes() >= Best)
          continue;
        if (!P.matches(FS.Concrete.data() + S.Begin, S.Count))
          continue;
        Best = P.instanceBytes();
        BestId = Id;
      }
      S.PatId = BestId;
    }
  }
}

unsigned Compressor::runPass() {
  Cands.clear();
  for (FuncState &FS : Funcs)
    for (size_t I = 0; I != FS.Slots.size(); ++I)
      generateFromSlot(FS, I);

  // Rank by benefit.
  struct Ranked {
    int64_t B;
    const Candidate *C;
  };
  std::vector<Ranked> Ranking;
  Ranking.reserve(Cands.size());
  for (const auto &[Key, C] : Cands) {
    (void)Key;
    // An adopted pattern also grows the Markov successor tables by at
    // least one entry; 3 bytes approximates the serialized id.
    int64_t P = C.GrossSave - C.P.dictEntryBytes() - 3;
    int64_t B = Opts.AbundantMemory
                    ? P
                    : P - static_cast<int64_t>(workingSetCost(C.P));
    if (B > 0)
      Ranking.push_back({B, &C});
  }
  std::sort(Ranking.begin(), Ranking.end(),
            [](const Ranked &A, const Ranked &B) {
              if (A.B != B.B)
                return A.B > B.B;
              return A.C->P.key() < B.C->P.key(); // Deterministic ties.
            });

  unsigned Adopted = 0;
  std::vector<uint32_t> NewCombined, NewIds;
  for (const Ranked &R : Ranking) {
    if (Adopted == EffectiveK)
      break;
    uint32_t Id = static_cast<uint32_t>(Pats.size());
    adopt(R.C->P);
    NewIds.push_back(Id);
    if (R.C->P.Elems.size() > 1)
      NewCombined.push_back(Id);
    ++Adopted;
  }

  // Combination first (paper's order), then specialization rewrites.
  for (uint32_t Id : NewCombined)
    rewriteCombination(Id);
  rewriteSpecializations(NewIds);
  return Adopted;
}

void Compressor::compactDictionary() {
  // Greedy estimates over-promise: some adopted patterns end up unused
  // after rewriting (a competing pattern claimed their occurrences).
  // Unused entries still cost dictionary and successor-table bytes, so
  // drop them and remap ids. Base patterns are implicit in the file
  // format and stay put.
  const uint32_t NumBase = static_cast<uint32_t>(VMOp::NumOps);
  std::vector<uint32_t> Uses(Pats.size(), 0);
  for (const FuncState &FS : Funcs)
    for (const Slot &S : FS.Slots)
      ++Uses[S.PatId];

  std::vector<uint32_t> Remap(Pats.size(), ~0u);
  std::vector<Pattern> NewPats;
  NewPats.reserve(Pats.size());
  for (uint32_t I = 0; I != NumBase; ++I) {
    Remap[I] = I;
    NewPats.push_back(std::move(Pats[I]));
  }
  for (uint32_t I = NumBase; I != Pats.size(); ++I) {
    if (Uses[I] == 0)
      continue;
    Remap[I] = static_cast<uint32_t>(NewPats.size());
    NewPats.push_back(std::move(Pats[I]));
  }
  Pats = std::move(NewPats);
  for (FuncState &FS : Funcs)
    for (Slot &S : FS.Slots)
      S.PatId = Remap[S.PatId];
}

//===----------------------------------------------------------------------===//
// Emission: Markov opcode coding and operand packing
//===----------------------------------------------------------------------===//

void Compressor::emit(BriscProgram &Out) {
  const uint32_t NumBase = static_cast<uint32_t>(VMOp::NumOps);
  Out.Added.assign(Pats.begin() + NumBase, Pats.end());
  uint32_t BBCtx = static_cast<uint32_t>(Pats.size());
  std::vector<std::vector<uint32_t>> Successors(Pats.size() + 1);

  // Pass 1: build successor lists (first-occurrence order) and per-slot
  // opcode byte sizes, then slot offsets.
  struct EmitFn {
    std::vector<uint32_t> SlotOff;
    std::vector<uint8_t> OpBytes;
  };
  std::vector<EmitFn> EmitFns(Funcs.size());

  auto SuccIndex = [&](uint32_t Ctx, uint32_t PatId) -> int {
    std::vector<uint32_t> &L = Successors[Ctx];
    for (size_t I = 0; I != L.size(); ++I)
      if (L[I] == PatId)
        return static_cast<int>(I);
    L.push_back(PatId);
    return static_cast<int>(L.size() - 1);
  };

  for (size_t FI = 0; FI != Funcs.size(); ++FI) {
    FuncState &FS = Funcs[FI];
    EmitFn &EF = EmitFns[FI];
    uint32_t Ctx = BBCtx;
    uint32_t Off = 0;
    for (const Slot &S : FS.Slots) {
      EF.SlotOff.push_back(Off);
      int Idx = SuccIndex(Ctx, S.PatId);
      unsigned OpSize = Idx < 255 ? 1 : 3; // Escape: 255 + 2-byte id.
      EF.OpBytes.push_back(static_cast<uint8_t>(OpSize));
      Off += OpSize + Pats[S.PatId].operandBytes();
      Ctx = FS.BBStart[S.Begin + S.Count] ? BBCtx : S.PatId;
    }
    EF.SlotOff.push_back(Off);
  }
  for (const std::vector<uint32_t> &L : Successors) {
    Out.Successors.addContext();
    for (uint32_t Id : L)
      Out.Successors.push(Id);
  }

  // Pass 2: resolve branch targets to byte offsets and write the bytes.
  for (size_t FI = 0; FI != Funcs.size(); ++FI) {
    FuncState &FS = Funcs[FI];
    EmitFn &EF = EmitFns[FI];
    BriscFunction BF;
    BF.Name = FS.Name;

    // Concrete instruction index -> slot index.
    std::vector<uint32_t> SlotOfInstr(FS.Concrete.size() + 1, ~0u);
    for (size_t SI = 0; SI != FS.Slots.size(); ++SI)
      SlotOfInstr[FS.Slots[SI].Begin] = static_cast<uint32_t>(SI);

    auto LabelToOff = [&](uint32_t Label) -> uint32_t {
      uint32_t InstrIdx = FS.LabelPos[Label];
      uint32_t SlotIdx = SlotOfInstr[InstrIdx];
      if (SlotIdx == ~0u)
        reportFatal("brisc: branch target inside a combined pattern");
      return EF.SlotOff[SlotIdx];
    };

    ByteWriter W;
    uint32_t Ctx = BBCtx;
    std::vector<Instr> Rewritten;
    for (size_t SI = 0; SI != FS.Slots.size(); ++SI) {
      const Slot &S = FS.Slots[SI];
      const Pattern &P = Pats[S.PatId];
      // Opcode byte(s).
      int Idx = -1;
      const std::vector<uint32_t> &L = Successors[Ctx];
      for (size_t I = 0; I != L.size(); ++I)
        if (L[I] == S.PatId) {
          Idx = static_cast<int>(I);
          break;
        }
      if (Idx < 0)
        reportFatal("brisc: successor list mismatch at emit");
      if (Idx < 255) {
        W.writeU8(static_cast<uint8_t>(Idx));
      } else {
        W.writeU8(255);
        W.writeU16(static_cast<uint16_t>(S.PatId));
      }
      // Operands, with labels rewritten to byte offsets.
      Rewritten.assign(FS.Concrete.begin() + S.Begin,
                       FS.Concrete.begin() + S.Begin + S.Count);
      for (Instr &In : Rewritten) {
        if (!vm::isBranch(In.Op))
          continue;
        uint32_t TOff = LabelToOff(In.Target);
        if (TOff > 32767)
          reportFatal("brisc: function too large for 16-bit targets");
        In.Target = TOff;
      }
      packOperands(P, Rewritten.data(), W);
      if (W.size() != EF.SlotOff[SI] + EF.OpBytes[SI] + P.operandBytes())
        reportFatal("brisc: emit size accounting mismatch");
      Ctx = FS.BBStart[S.Begin + S.Count] ? BBCtx : S.PatId;
    }
    BF.Code = W.take();

    for (size_t SI = 0; SI != FS.Slots.size(); ++SI)
      if (FS.BBStart[FS.Slots[SI].Begin])
        BF.BBOffsets.push_back(EF.SlotOff[SI]);
    Out.Funcs.push_back(std::move(BF));
  }

  Out.Entry = Prog.Entry;
  Out.Globals = Prog.Globals;
  Out.GlobalBase = Prog.GlobalBase;
  Out.GlobalEnd = Prog.GlobalEnd;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

BriscProgram Compressor::run() {
  initState();
  uint64_t TotalInstrs = 0;
  for (const FuncState &FS : Funcs)
    TotalInstrs += FS.Concrete.size();
  EffectiveK = Opts.K;
  if (Opts.AutoK)
    EffectiveK = std::max<unsigned>(
        Opts.K, static_cast<unsigned>(TotalInstrs / 1500));
  unsigned Pass = 0;
  for (; Pass != Opts.MaxPasses; ++Pass) {
    unsigned Adopted = runPass();
    if (Adopted < EffectiveK)
      break;
  }
  compactDictionary();
  BriscProgram Out;
  emit(Out);
  if (Stats) {
    Stats->Passes = Pass + 1;
    Stats->DictPatterns = Pats.size();
    std::vector<uint8_t> Image = Out.serialize(/*IncludeData=*/false);
    Stats->TotalBytes = Image.size();
    // Section sizes.
    ByteWriter DW;
    for (const Pattern &P : Pats)
      P.serialize(DW);
    Stats->DictBytes = DW.size();
    size_t Markov = 0;
    for (uint32_t Ctx = 0; Ctx != Out.Successors.numContexts(); ++Ctx)
      Markov += 1 + 2 * Out.Successors.of(Ctx).size(); // Approximate.
    Stats->MarkovBytes = Markov;
    size_t Code = 0, BBMap = 0;
    for (const BriscFunction &F : Out.Funcs) {
      Code += F.Code.size();
      BBMap += F.BBOffsets.size(); // Delta varints, mostly 1 byte.
    }
    Stats->CodeBytes = Code;
    Stats->BBMapBytes = BBMap;
  }
  return Out;
}

} // namespace

BriscProgram brisc::compress(const vm::VMProgram &P,
                             const CompressOptions &Opts,
                             CompressStats *Stats) {
  Compressor C(P, Opts, Stats);
  return C.run();
}
