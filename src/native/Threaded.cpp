//===- native/Threaded.cpp - Threaded-code backend -----------------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "native/Threaded.h"

#include "support/Support.h"

#include <chrono>
#include <cstring>

using namespace ccomp;
using namespace ccomp::native;
using vm::Instr;
using vm::VMOp;

namespace {

constexpr uint32_t HaltRA = 0xFFFFFFFFu;
constexpr uint32_t RetBit = 0x80000000u;

inline int32_t S32(uint32_t V) { return static_cast<int32_t>(V); }

//===----------------------------------------------------------------------===//
// Handlers
//===----------------------------------------------------------------------===//

#define H_PROLOG (void)I;

uint32_t hTrap(State &S, const NInstr &, uint32_t) {
  S.trap("unhandled instruction");
  return 0;
}

template <unsigned Size, bool Sign>
uint32_t hLoad(State &S, const NInstr &I, uint32_t Pc) {
  S.R[I.Rd] = S.load(S.R[I.Rs1] + I.Imm, Size, Sign);
  S.R[vm::ZR] = 0;
  return Pc + 1;
}

template <unsigned Size>
uint32_t hStore(State &S, const NInstr &I, uint32_t Pc) {
  S.store(S.R[I.Rs1] + I.Imm, Size, S.R[I.Rd]);
  return Pc + 1;
}

#define ALU_RR(NAME, EXPR)                                                     \
  uint32_t NAME(State &S, const NInstr &I, uint32_t Pc) {                      \
    uint32_t A = S.R[I.Rs1], B = S.R[I.Rs2];                                   \
    (void)A;                                                                   \
    (void)B;                                                                   \
    S.R[I.Rd] = (EXPR);                                                        \
    S.R[vm::ZR] = 0;                                                           \
    return Pc + 1;                                                             \
  }
#define ALU_RI(NAME, EXPR)                                                     \
  uint32_t NAME(State &S, const NInstr &I, uint32_t Pc) {                      \
    uint32_t A = S.R[I.Rs1];                                                   \
    uint32_t B = static_cast<uint32_t>(I.Imm);                                 \
    (void)A;                                                                   \
    (void)B;                                                                   \
    S.R[I.Rd] = (EXPR);                                                        \
    S.R[vm::ZR] = 0;                                                           \
    return Pc + 1;                                                             \
  }

ALU_RR(hAdd, A + B)
ALU_RR(hSub, A - B)
ALU_RR(hMul, A *B)
ALU_RR(hAnd, A &B)
ALU_RR(hOr, A | B)
ALU_RR(hXor, A ^ B)
ALU_RR(hSll, A << (B & 31))
ALU_RR(hSrl, A >> (B & 31))
ALU_RR(hSra, static_cast<uint32_t>(S32(A) >> (B & 31)))
ALU_RI(hAddI, A + B)
ALU_RI(hMulI, A *B)
ALU_RI(hAndI, A &B)
ALU_RI(hOrI, A | B)
ALU_RI(hXorI, A ^ B)
ALU_RI(hSllI, A << (B & 31))
ALU_RI(hSrlI, A >> (B & 31))
ALU_RI(hSraI, static_cast<uint32_t>(S32(A) >> (B & 31)))

uint32_t hDiv(State &S, const NInstr &I, uint32_t Pc) {
  int32_t D = S32(S.R[I.Rs2]);
  if (D == 0 || (S32(S.R[I.Rs1]) == INT32_MIN && D == -1)) {
    S.trap("integer division overflow");
    return Pc;
  }
  S.R[I.Rd] = static_cast<uint32_t>(S32(S.R[I.Rs1]) / D);
  S.R[vm::ZR] = 0;
  return Pc + 1;
}

uint32_t hDivU(State &S, const NInstr &I, uint32_t Pc) {
  if (S.R[I.Rs2] == 0) {
    S.trap("unsigned division by zero");
    return Pc;
  }
  S.R[I.Rd] = S.R[I.Rs1] / S.R[I.Rs2];
  S.R[vm::ZR] = 0;
  return Pc + 1;
}

uint32_t hRem(State &S, const NInstr &I, uint32_t Pc) {
  int32_t D = S32(S.R[I.Rs2]);
  if (D == 0 || (S32(S.R[I.Rs1]) == INT32_MIN && D == -1)) {
    S.trap("integer remainder overflow");
    return Pc;
  }
  S.R[I.Rd] = static_cast<uint32_t>(S32(S.R[I.Rs1]) % D);
  S.R[vm::ZR] = 0;
  return Pc + 1;
}

uint32_t hRemU(State &S, const NInstr &I, uint32_t Pc) {
  if (S.R[I.Rs2] == 0) {
    S.trap("unsigned remainder by zero");
    return Pc;
  }
  S.R[I.Rd] = S.R[I.Rs1] % S.R[I.Rs2];
  S.R[vm::ZR] = 0;
  return Pc + 1;
}

uint32_t hMov(State &S, const NInstr &I, uint32_t Pc) {
  S.R[I.Rd] = S.R[I.Rs1];
  S.R[vm::ZR] = 0;
  return Pc + 1;
}
uint32_t hNeg(State &S, const NInstr &I, uint32_t Pc) {
  S.R[I.Rd] = 0u - S.R[I.Rs1];
  S.R[vm::ZR] = 0;
  return Pc + 1;
}
uint32_t hNot(State &S, const NInstr &I, uint32_t Pc) {
  S.R[I.Rd] = ~S.R[I.Rs1];
  S.R[vm::ZR] = 0;
  return Pc + 1;
}
uint32_t hSxtb(State &S, const NInstr &I, uint32_t Pc) {
  S.R[I.Rd] = static_cast<uint32_t>(
      static_cast<int32_t>(static_cast<int8_t>(S.R[I.Rs1])));
  S.R[vm::ZR] = 0;
  return Pc + 1;
}
uint32_t hSxth(State &S, const NInstr &I, uint32_t Pc) {
  S.R[I.Rd] = static_cast<uint32_t>(
      static_cast<int32_t>(static_cast<int16_t>(S.R[I.Rs1])));
  S.R[vm::ZR] = 0;
  return Pc + 1;
}
uint32_t hZxtb(State &S, const NInstr &I, uint32_t Pc) {
  S.R[I.Rd] = S.R[I.Rs1] & 0xFF;
  S.R[vm::ZR] = 0;
  return Pc + 1;
}
uint32_t hZxth(State &S, const NInstr &I, uint32_t Pc) {
  S.R[I.Rd] = S.R[I.Rs1] & 0xFFFF;
  S.R[vm::ZR] = 0;
  return Pc + 1;
}
uint32_t hLi(State &S, const NInstr &I, uint32_t Pc) {
  S.R[I.Rd] = static_cast<uint32_t>(I.Imm);
  S.R[vm::ZR] = 0;
  return Pc + 1;
}

// Branches: Target is the absolute index of the destination.
#define BR_RR(NAME, COND)                                                      \
  uint32_t NAME(State &S, const NInstr &I, uint32_t Pc) {                      \
    uint32_t A = S.R[I.Rs1], B = S.R[I.Rs2];                                   \
    (void)A;                                                                   \
    (void)B;                                                                   \
    return (COND) ? I.Target : Pc + 1;                                         \
  }
#define BR_RI(NAME, COND)                                                      \
  uint32_t NAME(State &S, const NInstr &I, uint32_t Pc) {                      \
    uint32_t A = S.R[I.Rs1];                                                   \
    uint32_t B = static_cast<uint32_t>(I.Imm);                                 \
    (void)A;                                                                   \
    (void)B;                                                                   \
    return (COND) ? I.Target : Pc + 1;                                         \
  }

BR_RR(hBeq, A == B)
BR_RR(hBne, A != B)
BR_RR(hBlt, S32(A) < S32(B))
BR_RR(hBle, S32(A) <= S32(B))
BR_RR(hBgt, S32(A) > S32(B))
BR_RR(hBge, S32(A) >= S32(B))
BR_RR(hBltu, A < B)
BR_RR(hBleu, A <= B)
BR_RR(hBgtu, A > B)
BR_RR(hBgeu, A >= B)
BR_RI(hBeqI, A == B)
BR_RI(hBneI, A != B)
BR_RI(hBltI, S32(A) < S32(B))
BR_RI(hBleI, S32(A) <= S32(B))
BR_RI(hBgtI, S32(A) > S32(B))
BR_RI(hBgeI, S32(A) >= S32(B))
BR_RI(hBltuI, A < B)
BR_RI(hBleuI, A <= B)
BR_RI(hBgtuI, A > B)
BR_RI(hBgeuI, A >= B)

uint32_t hJmp(State &, const NInstr &I, uint32_t) { return I.Target; }

uint32_t hCall(State &S, const NInstr &I, uint32_t Pc) {
  S.R[vm::RA] = RetBit | (Pc + 1);
  return I.Target;
}

uint32_t hRjr(State &S, const NInstr &I, uint32_t Pc) {
  uint32_t Addr = S.R[I.Rd];
  if (Addr == HaltRA) {
    S.Halted = true;
    S.Exit = S32(S.R[vm::N0]);
    return Pc;
  }
  if (!(Addr & RetBit)) {
    S.trap("rjr through non-code address");
    return Pc;
  }
  return Addr & ~RetBit;
}

uint32_t hEpi(State &S, const NInstr &I, uint32_t Pc) {
  const vm::FuncMeta &Meta = S.Prog->Metas[I.Target];
  for (const vm::FuncMeta::Save &Sv : Meta.Saves)
    S.R[Sv.Reg] = S.load(S.R[vm::SP] + Sv.Off, 4, false);
  S.R[vm::SP] += Meta.FrameSize;
  S.R[vm::ZR] = 0;
  uint32_t Addr = S.R[vm::RA];
  if (Addr == HaltRA) {
    S.Halted = true;
    S.Exit = S32(S.R[vm::N0]);
    return Pc;
  }
  if (!(Addr & RetBit)) {
    S.trap("epi return through non-code address");
    return Pc;
  }
  return Addr & ~RetBit;
}

uint32_t hEnter(State &S, const NInstr &I, uint32_t Pc) {
  S.R[vm::SP] -= static_cast<uint32_t>(I.Imm);
  return Pc + 1;
}
uint32_t hExit(State &S, const NInstr &I, uint32_t Pc) {
  S.R[vm::SP] += static_cast<uint32_t>(I.Imm);
  return Pc + 1;
}
uint32_t hSpill(State &S, const NInstr &I, uint32_t Pc) {
  S.store(S.R[vm::SP] + I.Imm, 4, S.R[I.Rd]);
  return Pc + 1;
}
uint32_t hReload(State &S, const NInstr &I, uint32_t Pc) {
  S.R[I.Rd] = S.load(S.R[vm::SP] + I.Imm, 4, false);
  S.R[vm::ZR] = 0;
  return Pc + 1;
}

uint32_t hMcpy(State &S, const NInstr &I, uint32_t Pc) {
  uint32_t Dst = S.R[I.Rd], Src = S.R[I.Rs1];
  uint32_t Len = static_cast<uint32_t>(I.Imm);
  if (Dst < 0x100 || Src < 0x100 || Dst + Len > S.MemSize ||
      Src + Len > S.MemSize) {
    S.trap("mcpy out of range");
    return Pc;
  }
  std::memmove(S.Mem + Dst, S.Mem + Src, Len);
  return Pc + 1;
}

uint32_t hMset(State &S, const NInstr &I, uint32_t Pc) {
  uint32_t Dst = S.R[I.Rd];
  uint32_t Len = static_cast<uint32_t>(I.Imm);
  if (Dst < 0x100 || Dst + Len > S.MemSize) {
    S.trap("mset out of range");
    return Pc;
  }
  std::memset(S.Mem + Dst, static_cast<int>(S.R[I.Rs1] & 0xFF), Len);
  return Pc + 1;
}

uint32_t hSys(State &S, const NInstr &I, uint32_t Pc) {
  switch (static_cast<vm::Sys>(I.Imm)) {
  case vm::Sys::Exit:
    S.Halted = true;
    S.Exit = S32(S.R[vm::N0]);
    return Pc;
  case vm::Sys::PutInt:
    *S.Out += std::to_string(S32(S.R[vm::N0]));
    return Pc + 1;
  case vm::Sys::PutChar:
    S.Out->push_back(static_cast<char>(S.R[vm::N0] & 0xFF));
    return Pc + 1;
  case vm::Sys::PutStr: {
    uint32_t Addr = S.R[vm::N0];
    unsigned Guard = 0;
    while (Addr >= 0x100 && Addr < S.MemSize && S.Mem[Addr] != 0 &&
           Guard++ < (1u << 20))
      S.Out->push_back(static_cast<char>(S.Mem[Addr++]));
    return Pc + 1;
  }
  case vm::Sys::Alloc: {
    uint32_t Bytes = (S.R[vm::N0] + 7) & ~7u;
    if (S.HeapPtr + Bytes + 65536 > S.R[vm::SP]) {
      S.trap("out of heap memory");
      return Pc;
    }
    S.R[vm::N0] = S.HeapPtr;
    S.HeapPtr += Bytes;
    return Pc + 1;
  }
  }
  S.trap("unknown system call");
  return Pc;
}

} // namespace

/// Handler table indexed by VMOp.
Handler native::detail::handlerFor(VMOp Op) {
  switch (Op) {
  case VMOp::LD_B: return hLoad<1, true>;
  case VMOp::LD_BU: return hLoad<1, false>;
  case VMOp::LD_H: return hLoad<2, true>;
  case VMOp::LD_HU: return hLoad<2, false>;
  case VMOp::LD_W: return hLoad<4, false>;
  case VMOp::ST_B: return hStore<1>;
  case VMOp::ST_H: return hStore<2>;
  case VMOp::ST_W: return hStore<4>;
  case VMOp::ADD: return hAdd;
  case VMOp::SUB: return hSub;
  case VMOp::MUL: return hMul;
  case VMOp::DIV: return hDiv;
  case VMOp::DIVU: return hDivU;
  case VMOp::REM: return hRem;
  case VMOp::REMU: return hRemU;
  case VMOp::AND: return hAnd;
  case VMOp::OR: return hOr;
  case VMOp::XOR: return hXor;
  case VMOp::SLL: return hSll;
  case VMOp::SRL: return hSrl;
  case VMOp::SRA: return hSra;
  case VMOp::ADDI: return hAddI;
  case VMOp::MULI: return hMulI;
  case VMOp::ANDI: return hAndI;
  case VMOp::ORI: return hOrI;
  case VMOp::XORI: return hXorI;
  case VMOp::SLLI: return hSllI;
  case VMOp::SRLI: return hSrlI;
  case VMOp::SRAI: return hSraI;
  case VMOp::MOV: return hMov;
  case VMOp::NEG: return hNeg;
  case VMOp::NOT: return hNot;
  case VMOp::SXTB: return hSxtb;
  case VMOp::SXTH: return hSxth;
  case VMOp::ZXTB: return hZxtb;
  case VMOp::ZXTH: return hZxth;
  case VMOp::LI: return hLi;
  case VMOp::BEQ: return hBeq;
  case VMOp::BNE: return hBne;
  case VMOp::BLT: return hBlt;
  case VMOp::BLE: return hBle;
  case VMOp::BGT: return hBgt;
  case VMOp::BGE: return hBge;
  case VMOp::BLTU: return hBltu;
  case VMOp::BLEU: return hBleu;
  case VMOp::BGTU: return hBgtu;
  case VMOp::BGEU: return hBgeu;
  case VMOp::BEQI: return hBeqI;
  case VMOp::BNEI: return hBneI;
  case VMOp::BLTI: return hBltI;
  case VMOp::BLEI: return hBleI;
  case VMOp::BGTI: return hBgtI;
  case VMOp::BGEI: return hBgeI;
  case VMOp::BLTUI: return hBltuI;
  case VMOp::BLEUI: return hBleuI;
  case VMOp::BGTUI: return hBgtuI;
  case VMOp::BGEUI: return hBgeuI;
  case VMOp::JMP: return hJmp;
  case VMOp::CALL: return hCall;
  case VMOp::RJR: return hRjr;
  case VMOp::ENTER: return hEnter;
  case VMOp::EXIT: return hExit;
  case VMOp::SPILL: return hSpill;
  case VMOp::RELOAD: return hReload;
  case VMOp::EPI: return hEpi;
  case VMOp::MCPY: return hMcpy;
  case VMOp::MSET: return hMset;
  case VMOp::SYS: return hSys;
  case VMOp::NumOps: break;
  }
  return hTrap;
}

//===----------------------------------------------------------------------===//
// Code generation
//===----------------------------------------------------------------------===//

NProgram native::generate(const vm::VMProgram &P, GenStats *Stats) {
  auto T0 = std::chrono::steady_clock::now();
  NProgram N;
  N.FuncEntry.reserve(P.Functions.size());
  size_t Total = 0;
  for (const vm::VMFunction &F : P.Functions)
    Total += F.Code.size();
  N.Code.reserve(Total);

  for (uint32_t FI = 0; FI != P.Functions.size(); ++FI) {
    const vm::VMFunction &F = P.Functions[FI];
    uint32_t Base = static_cast<uint32_t>(N.Code.size());
    N.FuncEntry.push_back(Base);
    N.Metas.push_back(vm::deriveMeta(F));
    for (const Instr &In : F.Code) {
      NInstr NI;
      NI.H = detail::handlerFor(In.Op);
      NI.Rd = In.Rd;
      NI.Rs1 = In.Rs1;
      NI.Rs2 = In.Rs2;
      NI.Imm = In.Imm;
      if (vm::isBranch(In.Op))
        NI.Target = Base + F.LabelPos[In.Target];
      else if (In.Op == VMOp::EPI)
        NI.Target = FI;
      else
        NI.Target = In.Target; // Calls patched below; others unused.
      N.Code.push_back(NI);
    }
  }
  // Patch call targets to absolute entries.
  for (NInstr &NI : N.Code)
    if (NI.H == static_cast<Handler>(hCall))
      NI.Target = N.FuncEntry[NI.Target];

  N.Entry = P.Entry;
  N.Globals = P.Globals;
  N.GlobalBase = P.GlobalBase;
  N.GlobalEnd = P.GlobalEnd;

  if (Stats) {
    auto T1 = std::chrono::steady_clock::now();
    Stats->InputInstrs = Total;
    Stats->OutputBytes = N.codeBytes();
    Stats->Seconds = std::chrono::duration<double>(T1 - T0).count();
  }
  return N;
}

NProgram native::generateFromBrisc(const brisc::BriscProgram &B,
                                   GenStats *Stats) {
  auto T0 = std::chrono::steady_clock::now();
  vm::VMProgram P = brisc::decodeToVM(B);
  NProgram N = generate(P, nullptr);
  if (Stats) {
    auto T1 = std::chrono::steady_clock::now();
    Stats->InputInstrs = vm::countInstrs(P);
    Stats->OutputBytes = N.codeBytes();
    Stats->Seconds = std::chrono::duration<double>(T1 - T0).count();
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

vm::RunResult native::run(const NProgram &P, vm::RunOptions Opts) {
  vm::RunResult Res;
  if (P.Code.empty()) {
    Res.Trap = "empty program";
    return Res;
  }
  // The standalone run owns the storage the State borrows.
  uint32_t Regs[16] = {0};
  vm::DataMemory MemStore(Opts.MemBytes);
  std::string OutStore;
  State S;
  S.Prog = &P;
  S.R = Regs;
  S.Mem = MemStore.data();
  S.MemSize = MemStore.size();
  S.Out = &OutStore;
  for (const vm::VMGlobal &G : P.Globals) {
    if (G.Addr + G.Size > S.MemSize) {
      Res.Trap = "global does not fit in memory";
      return Res;
    }
    if (!G.Init.empty())
      std::memcpy(S.Mem + G.Addr, G.Init.data(), G.Init.size());
  }
  S.HeapPtr = (P.GlobalEnd + 15) & ~15u;
  S.R[vm::SP] = static_cast<uint32_t>(S.MemSize) & ~15u;
  S.R[vm::RA] = HaltRA;

  uint32_t Pc = P.FuncEntry[P.Entry];
  uint64_t Steps = 0;
  const uint64_t MaxSteps = Opts.MaxSteps;
  const NInstr *Code = P.Code.data();
  const uint32_t CodeSize = static_cast<uint32_t>(P.Code.size());

  // The dispatch loop: check the budget in blocks to keep it tight.
  while (!S.Halted) {
    uint64_t Block = 65536;
    if (Steps + Block > MaxSteps)
      Block = MaxSteps > Steps ? MaxSteps - Steps : 0;
    if (Block == 0) {
      S.trap("step limit exceeded");
      break;
    }
    uint64_t I = 0;
    for (; I != Block; ++I) {
      if (Pc >= CodeSize) {
        S.trap("fell off the end of threaded code");
        break;
      }
      const NInstr &In = Code[Pc];
      Pc = In.H(S, In, Pc);
      if (S.Halted) {
        ++I; // The halting instruction still counts as executed.
        break;
      }
    }
    Steps += I;
  }

  Res.Ok = !S.Trapped;
  Res.ExitCode = S.Exit;
  Res.Steps = Steps;
  Res.Trap = S.TrapMsg;
  Res.Output = std::move(OutStore);
  return Res;
}
