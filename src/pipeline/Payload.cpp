//===- pipeline/Payload.cpp - Canonical codec payloads --------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Payload.h"

#include "pipeline/Profile.h"
#include "support/ByteIO.h"
#include "support/Support.h"
#include "vm/Encode.h"
#include "wire/Wire.h"

#include <algorithm>

using namespace ccomp;
using namespace ccomp::pipeline;
using vm::Instr;
using vm::VMFunction;
using vm::VMOp;

namespace {
constexpr uint32_t ImageMagic = 0x49464343; // "CCFI".
} // namespace

std::vector<uint8_t> pipeline::encodeFuncImage(const VMFunction &F) {
  ByteWriter W;
  W.writeU32(ImageMagic);
  W.writeStr(F.Name);
  W.writeVarU(F.FrameSize);
  W.writeVarU(F.Code.size());
  for (const Instr &In : F.Code) {
    Instr Out = In;
    if (vm::isBranch(In.Op)) {
      if (In.Target >= F.LabelPos.size())
        reportFatal("funcimage: branch to an out-of-range label");
      Out.Target = F.LabelPos[In.Target];
    }
    W.writeU8(static_cast<uint8_t>(Out.Op));
    W.writeU8(Out.Rd);
    W.writeU8(Out.Rs1);
    W.writeU8(Out.Rs2);
    W.writeU32(static_cast<uint32_t>(Out.Imm));
    W.writeU32(Out.Target);
  }
  return W.take();
}

namespace {

/// Decodes an image leaving branch targets as the instruction indices it
/// stores (each checked to lie inside the function) and LabelPos empty.
VMFunction decodeImageCodeOrThrow(ByteSpan Bytes) {
  ByteReader R(Bytes);
  if (R.readU32() != ImageMagic)
    decodeFail("funcimage: bad magic");
  VMFunction F;
  F.Name = R.readStr();
  F.FrameSize = static_cast<uint32_t>(R.readVarU());
  size_t N = R.readVarU();
  if (N > Bytes.size()) // Each instruction takes at least 12 bytes.
    decodeFail("funcimage: inflated instruction count");
  F.Code.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    Instr In;
    uint8_t Op = R.readU8();
    if (Op >= static_cast<uint8_t>(VMOp::NumOps))
      decodeFail("funcimage: bad opcode");
    In.Op = static_cast<VMOp>(Op);
    In.Rd = R.readU8();
    In.Rs1 = R.readU8();
    In.Rs2 = R.readU8();
    In.Imm = static_cast<int32_t>(R.readU32());
    In.Target = R.readU32();
    F.Code.push_back(In);
  }
  if (!R.atEnd())
    decodeFail("funcimage: trailing bytes");
  for (const Instr &In : F.Code)
    if (vm::isBranch(In.Op) && In.Target >= F.Code.size())
      decodeFail("funcimage: branch past the end of the function");
  return F;
}

VMFunction decodeFuncImageOrThrow(ByteSpan Bytes) {
  VMFunction F = decodeImageCodeOrThrow(Bytes);
  // Rebuild the label table: one label per distinct branch-target
  // instruction index, in instruction order.
  std::vector<uint32_t> Targets;
  for (const Instr &In : F.Code)
    if (vm::isBranch(In.Op))
      Targets.push_back(In.Target);
  std::sort(Targets.begin(), Targets.end());
  Targets.erase(std::unique(Targets.begin(), Targets.end()), Targets.end());
  F.LabelPos = Targets;
  for (Instr &In : F.Code)
    if (vm::isBranch(In.Op)) {
      auto It = std::lower_bound(Targets.begin(), Targets.end(), In.Target);
      In.Target = static_cast<uint32_t>(It - Targets.begin());
    }
  return F;
}

} // namespace

Result<VMFunction> pipeline::tryDecodeFuncImage(ByteSpan Bytes) {
  return tryDecode([&] { return decodeFuncImageOrThrow(Bytes); });
}

namespace {

/// Materializes pages from block-index page starts (ascending, first 0).
std::vector<PageChunk> pagesFromStarts(const VMFunction &F,
                                       const std::vector<uint32_t> &Cuts,
                                       const std::vector<uint32_t> &Starts) {
  std::vector<PageChunk> Pages;
  for (size_t P = 0; P != Starts.size(); ++P) {
    uint32_t Lo = Cuts[Starts[P]];
    uint32_t Hi = P + 1 < Starts.size() ? Cuts[Starts[P + 1]]
                                        : static_cast<uint32_t>(F.Code.size());
    PageChunk C;
    C.FirstInstr = Lo;
    C.Code.assign(F.Code.begin() + Lo, F.Code.begin() + Hi);
    Pages.push_back(std::move(C));
  }
  if (Pages.empty())
    Pages.push_back(PageChunk{}); // An empty function still gets a page.
  return Pages;
}

} // namespace

std::vector<PageChunk> pipeline::splitFunctionPages(const VMFunction &F,
                                                    size_t TargetBytes) {
  const size_t Len = F.Code.size();
  // Block boundaries: the entry plus every label position inside the
  // body (a label at Len marks an empty trailing block; no cut needed).
  std::vector<uint32_t> Cuts = vm::blockCuts(F.LabelPos, Len);

  std::vector<PageChunk> Pages;
  uint32_t PageStart = 0;
  size_t PageBytes = 0;
  auto Flush = [&](uint32_t UpTo) {
    if (UpTo == PageStart)
      return;
    PageChunk P;
    P.FirstInstr = PageStart;
    P.Code.assign(F.Code.begin() + PageStart, F.Code.begin() + UpTo);
    Pages.push_back(std::move(P));
    PageStart = UpTo;
    PageBytes = 0;
  };
  for (size_t C = 0; C + 1 < Cuts.size(); ++C) {
    size_t BlockBytes = 0;
    for (uint32_t I = Cuts[C]; I != Cuts[C + 1]; ++I)
      BlockBytes += vm::encodedSize(F.Code[I]);
    if (TargetBytes && PageBytes && PageBytes + BlockBytes > TargetBytes)
      Flush(Cuts[C]);
    PageBytes += BlockBytes;
  }
  Flush(static_cast<uint32_t>(Len));
  if (Pages.empty())
    Pages.push_back(PageChunk{}); // An empty function still gets a page.
  return Pages;
}

std::vector<PageChunk> pipeline::splitFunctionPages(const VMFunction &F,
                                                    size_t TargetBytes,
                                                    const FunctionProfile *Profile) {
  const size_t Len = F.Code.size();
  std::vector<uint32_t> Cuts = vm::blockCuts(F.LabelPos, Len);
  const size_t N = Len ? Cuts.size() - 1 : 0; // Block count.
  // The profile is advisory: anything unusable (no profile, no byte
  // budget to trade against, a shape recorded against a different build,
  // or an all-cold function) falls back to the greedy packer so the
  // layout is bit-identical to the unprofiled build.
  bool Usable = Profile && TargetBytes && N && Profile->BlockHeat.size() == N &&
                Profile->EdgeAffinity.size() == (N > 1 ? N - 1 : 0) &&
                Profile->hot();
  if (!Usable)
    return splitFunctionPages(F, TargetBytes);

  std::vector<uint64_t> BlockBytes(N, 0);
  for (size_t B = 0; B != N; ++B)
    for (uint32_t I = Cuts[B]; I != Cuts[B + 1]; ++I)
      BlockBytes[B] += vm::encodedSize(F.Code[I]);

  // Minimum-cost partition of the block sequence into runs of at most
  // TargetBytes (a single oversized block is still a legal run). Costs,
  // all in byte units with W = TargetBytes as the fault weight: a page
  // holding any hot block is decoded whenever the function runs, so it
  // costs its bytes plus one fault W; an all-cold page is never decoded
  // and costs nothing; a cut between blocks with observed transfer
  // affinity a costs a*W (each crossing is a potential fault). O(n^2)
  // worst case, but the inner loop stops at the byte budget.
  const uint64_t W = TargetBytes;
  const std::vector<uint64_t> &Heat = Profile->BlockHeat;
  const std::vector<uint64_t> &Aff = Profile->EdgeAffinity;
  constexpr uint64_t Inf = ~0ull;
  std::vector<uint64_t> Cost(N + 1, Inf);
  std::vector<uint32_t> Choice(N + 1, 0);
  Cost[0] = 0;
  for (size_t J = 1; J <= N; ++J) {
    uint64_t Bytes = 0;
    bool Hot = false;
    for (size_t I = J; I-- > 0;) { // Page = blocks [I, J).
      Bytes += BlockBytes[I];
      Hot = Hot || Heat[I] != 0;
      if (Bytes > TargetBytes && I + 1 != J)
        break; // Over budget and not a lone oversized block.
      if (Cost[I] == Inf)
        continue;
      uint64_t C = Cost[I] + (Hot ? Bytes + W : 0) + (I ? Aff[I - 1] * W : 0);
      // <= so equal-cost ties take the longer page: cold runs pack to
      // the budget instead of fragmenting into per-block pages.
      if (C <= Cost[J]) {
        Cost[J] = C;
        Choice[J] = static_cast<uint32_t>(I);
      }
    }
  }

  std::vector<uint32_t> Starts;
  for (uint32_t J = static_cast<uint32_t>(N); J > 0; J = Choice[J])
    Starts.push_back(Choice[J]);
  std::reverse(Starts.begin(), Starts.end());
  return pagesFromStarts(F, Cuts, Starts);
}

std::vector<uint8_t>
pipeline::encodePagePayload(PayloadKind K, const std::vector<Instr> &Code,
                            std::vector<uint32_t> *PageLabels) {
  if (K == PayloadKind::Module)
    reportFatal("page payload requested from a module-granularity codec");
  VMFunction PF;
  PF.Code = Code;
  if (K != PayloadKind::FuncImage)
    return vm::encodeFunction(PF); // Targets stay function-label indices.

  // The image format resolves targets to instruction indices and its
  // decoder validates them against the page's own length, so
  // whole-function label indices cannot ride through it. Rewrite each
  // branch target to its rank among the page's referenced labels and
  // give the image the identity label table {0..k-1}: k never exceeds
  // the page's branch count, so every rank is a valid in-page
  // instruction index, and the decoder's canonical table rebuild maps
  // rank r back to exactly r.
  std::vector<uint32_t> Labels;
  for (const Instr &In : Code)
    if (vm::isBranch(In.Op))
      Labels.push_back(In.Target);
  std::sort(Labels.begin(), Labels.end());
  Labels.erase(std::unique(Labels.begin(), Labels.end()), Labels.end());
  for (Instr &In : PF.Code)
    if (vm::isBranch(In.Op)) {
      auto It = std::lower_bound(Labels.begin(), Labels.end(), In.Target);
      In.Target = static_cast<uint32_t>(It - Labels.begin());
    }
  PF.LabelPos.resize(Labels.size());
  for (uint32_t R = 0; R != PF.LabelPos.size(); ++R)
    PF.LabelPos[R] = R;
  if (PageLabels)
    *PageLabels = std::move(Labels);
  return encodeFuncImage(PF);
}

void pipeline::remapPageRanks(std::vector<Instr> &Code,
                              const std::vector<uint32_t> &PageLabels) {
  for (Instr &In : Code)
    if (vm::isBranch(In.Op)) {
      uint32_t Rank = In.Target;
      if (Rank >= Code.size())
        decodeFail("page: branch rank past the end of the page");
      if (Rank >= PageLabels.size())
        decodeFail("page: branch rank outside the page label table");
      In.Target = PageLabels[Rank];
    }
}

Result<std::vector<Instr>>
pipeline::tryDecodePagePayload(PayloadKind K, ByteSpan Bytes,
                               const std::vector<uint32_t> &PageLabels) {
  if (K != PayloadKind::FuncImage)
    return vm::tryDecodeFunction(Bytes);
  return tryDecode([&] {
    // The image stores each branch target as the rank encodePagePayload
    // assigned (an in-page instruction index); no label table is needed.
    std::vector<Instr> Code = decodeImageCodeOrThrow(Bytes).Code;
    remapPageRanks(Code, PageLabels);
    return Code;
  });
}

std::vector<std::vector<uint8_t>>
pipeline::makePayloads(const Codec &C, const vm::VMProgram &P,
                       const ir::Module *M) {
  std::vector<std::vector<uint8_t>> Items;
  switch (C.payloadKind()) {
  case PayloadKind::Raw:
  case PayloadKind::FixedCode:
    for (const VMFunction &F : P.Functions)
      Items.push_back(vm::encodeFunction(F));
    break;
  case PayloadKind::FuncImage:
    for (const VMFunction &F : P.Functions)
      Items.push_back(encodeFuncImage(F));
    break;
  case PayloadKind::Module:
    if (!M)
      reportFatal("pipeline: module payload requested without a module");
    Items.push_back(wire::serializeModule(*M));
    break;
  }
  return Items;
}
