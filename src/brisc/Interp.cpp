//===- brisc/Interp.cpp - In-place BRISC interpretation -----------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "brisc/Interp.h"

#include "support/Support.h"

#include <algorithm>

using namespace ccomp;
using namespace ccomp::brisc;
using vm::Instr;
using vm::Machine;
using vm::VMOp;

namespace {

/// Derives the EPI metadata of a compressed function by decoding its
/// prologue in place.
vm::FuncMeta prologueMeta(const BriscProgram &B, const BriscFunction &F) {
  vm::FuncMeta Meta;
  uint32_t Ctx = B.bbStartContext();
  size_t Off = 0;
  std::vector<Instr> Buf;
  bool Prologue = true;
  while (Off < F.Code.size() && Prologue) {
    uint8_t OpByte = F.Code[Off];
    size_t OpLen = 1;
    uint32_t PatId;
    if (OpByte == 255) {
      if (Off + 3 > F.Code.size())
        return Meta;
      PatId = static_cast<uint32_t>(F.Code[Off + 1] | (F.Code[Off + 2] << 8));
      OpLen = 3;
    } else {
      PatId = B.Successors.lookup(Ctx, OpByte);
    }
    if (PatId >= B.numPatterns())
      return Meta; // The run loop traps on the same bytes.
    const Pattern &P = B.pattern(PatId);
    Buf.clear();
    size_t Used = unpackOperands(P, F.Code.data() + Off + OpLen,
                                 F.Code.size() - (Off + OpLen), Buf);
    for (const Instr &In : Buf) {
      if (In.Op == VMOp::ENTER && Meta.Saves.empty() &&
          Meta.FrameSize == 0) {
        Meta.FrameSize = static_cast<uint32_t>(In.Imm);
      } else if (In.Op == VMOp::SPILL) {
        Meta.Saves.push_back({In.Rd, In.Imm});
      } else {
        Prologue = false;
        break;
      }
    }
    Off += OpLen + Used;
    Ctx = PatId;
  }
  return Meta;
}

} // namespace

vm::RunResult brisc::interpret(const BriscProgram &B, vm::RunOptions Opts) {
  vm::RunResult Res;
  if (B.Funcs.empty()) {
    Res.Trap = "empty program";
    return Res;
  }

  // Shim program supplies the data segment to the Machine.
  vm::VMProgram Shim;
  Shim.Globals = B.Globals;
  Shim.GlobalBase = B.GlobalBase;
  Shim.GlobalEnd = B.GlobalEnd;
  Opts.Layout = nullptr;
  Machine M(Shim, Opts);

  // Page accounting over the serialized image: the dictionary and
  // Markov tables are always resident; code pages count as touched.
  BriscLayout Layout = layoutOf(B);
  std::vector<uint8_t> PageSeen((Layout.TotalBytes / Opts.PageSize) + 2, 0);
  std::vector<uint32_t> PageTrace;
  uint32_t LastPage = ~0u;
  for (uint32_t Pg = 0; Pg <= Layout.FixedBytes / Opts.PageSize; ++Pg)
    PageSeen[Pg] = 1;
  auto Touch = [&](uint32_t Fn, uint32_t Off, uint32_t Len) {
    uint32_t First = (Layout.FuncBase[Fn] + Off) / Opts.PageSize;
    uint32_t Last = (Layout.FuncBase[Fn] + Off + Len) / Opts.PageSize;
    for (uint32_t Pg = First; Pg <= Last && Pg < PageSeen.size(); ++Pg)
      PageSeen[Pg] = 1;
    if (First != LastPage) {
      LastPage = First;
      if (PageTrace.size() < Opts.MaxPageTrace)
        PageTrace.push_back(First);
    }
  };

  std::vector<vm::FuncMeta> Metas;
  Metas.reserve(B.Funcs.size());
  for (const BriscFunction &F : B.Funcs)
    Metas.push_back(prologueMeta(B, F));

  uint32_t BBCtx = B.bbStartContext();
  uint32_t Fn = B.Entry;
  uint32_t Off = 0;
  uint32_t Ctx = BBCtx;
  uint64_t Steps = 0;
  std::vector<Instr> Buf;

  auto IsBBStart = [&](uint32_t F, uint32_t O) {
    const std::vector<uint32_t> &BB = B.Funcs[F].BBOffsets;
    return std::binary_search(BB.begin(), BB.end(), O);
  };

  while (!M.halted()) {
    const BriscFunction &F = B.Funcs[Fn];
    if (Off >= F.Code.size()) {
      M.trap("fell off the end of compressed function " + F.Name);
      break;
    }
    // Decode one pattern instance in place.
    uint8_t OpByte = F.Code[Off];
    size_t OpLen = 1;
    uint32_t PatId;
    if (OpByte == 255) {
      if (Off + 3 > F.Code.size()) {
        M.trap("truncated escape opcode");
        break;
      }
      PatId = static_cast<uint32_t>(F.Code[Off + 1] |
                                    (F.Code[Off + 2] << 8));
      OpLen = 3;
    } else {
      PatId = B.Successors.lookup(Ctx, OpByte);
      if (PatId == ~0u) {
        M.trap("opcode byte outside Markov context");
        break;
      }
    }
    if (PatId >= B.numPatterns()) {
      M.trap("bad pattern id");
      break;
    }
    const Pattern &P = B.pattern(PatId);
    Buf.clear();
    size_t Used = unpackOperands(P, F.Code.data() + Off + OpLen,
                                 F.Code.size() - (Off + OpLen), Buf);
    uint32_t NextOff = Off + static_cast<uint32_t>(OpLen + Used);
    Touch(Fn, Off, static_cast<uint32_t>(OpLen + Used));

    Steps += Buf.size();
    if (Steps > Opts.MaxSteps) {
      M.trap("step limit exceeded");
      break;
    }

    bool Transferred = false;
    for (const Instr &In : Buf) {
      if (M.halted())
        break;
      if (M.dataStep(In))
        continue;
      switch (In.Op) {
      case VMOp::JMP:
        Off = In.Target;
        Ctx = BBCtx;
        Transferred = true;
        break;
      case VMOp::CALL:
        M.setReg(vm::RA, Machine::encodeRet(Fn, NextOff));
        Fn = In.Target;
        Off = 0;
        Ctx = BBCtx;
        Transferred = true;
        break;
      case VMOp::RJR:
      case VMOp::EPI: {
        uint32_t Addr = In.Op == VMOp::EPI ? M.execEpi(Metas[Fn])
                                           : M.reg(In.Rd);
        if (Addr == Machine::HaltRA) {
          M.haltWithN0();
          Transferred = true;
          break;
        }
        if (!(Addr & 0x80000000u)) {
          M.trap("return through non-code address");
          break;
        }
        Fn = Machine::retFunc(Addr);
        Off = Machine::retIdx(Addr);
        Ctx = BBCtx;
        Transferred = true;
        break;
      }
      default:
        if (vm::isBranch(In.Op)) {
          if (M.branchTaken(In)) {
            Off = In.Target;
            Ctx = BBCtx;
            Transferred = true;
          }
          break;
        }
        M.trap("unhandled opcode in BRISC interpreter");
        break;
      }
      if (Transferred)
        break;
    }
    if (M.halted())
      break;
    if (!Transferred) {
      Off = NextOff;
      Ctx = IsBBStart(Fn, NextOff) ? BBCtx : PatId;
    }
  }

  Res.Ok = !M.trapped();
  Res.ExitCode = M.exitCode();
  Res.Steps = Steps;
  Res.Trap = M.trapMessage();
  Res.Output = M.output();
  uint64_t Pages = 0;
  for (uint8_t Pg : PageSeen)
    Pages += Pg;
  Res.PagesTouched = Pages;
  Res.PageTrace = std::move(PageTrace);
  return Res;
}
