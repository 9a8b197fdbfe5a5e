//===- codegen/Codegen.cpp - Tree IR to VM code generation -------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Frame layout (offsets from sp after the prologue's ENTER):
//
//   [0, OutBytes)            outgoing stack arguments (args 4+)
//   [OutBytes, +SaveBytes)   ra and callee-saved spills
//   [LocalBase, +Locals)     the IR function's locals (ADDRL offsets)
//   [TempBase, +TempBytes)   deep-expression spill temporaries
//   Frame = align8(TempBase + TempBytes);   ADDRF[k] -> sp + Frame + k
//
// Because SaveBytes and TempBytes are only known after the body has been
// emitted, body instructions reference frame regions through fixups that
// are patched once the layout is final.
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"

#include "support/Support.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace ccomp;
using namespace ccomp::codegen;
using ir::Op;
using ir::Tree;
using ir::TypeSuffix;
using vm::Instr;
using vm::VMOp;

namespace {

/// Runtime builtins lowered to system calls.
struct Builtin {
  const char *Name;
  vm::Sys Id;
  bool Returns;
};
constexpr Builtin Builtins[] = {
    {"exit", vm::Sys::Exit, false},
    {"print_int", vm::Sys::PutInt, false},
    {"print_char", vm::Sys::PutChar, false},
    {"print_str", vm::Sys::PutStr, false},
    {"alloc", vm::Sys::Alloc, true},
};

const Builtin *findBuiltin(const std::string &Name) {
  for (const Builtin &B : Builtins)
    if (Name == B.Name)
      return &B;
  return nullptr;
}

/// How a symbol resolves at code generation time.
struct SymTarget {
  enum KindT { Func, Data, Sys, Undefined } Kind = Undefined;
  uint32_t FuncIdx = 0;
  uint32_t Addr = 0;
  const Builtin *B = nullptr;
};

class FunctionEmitter;

/// Whole-module code generator: lays out globals, indexes functions, and
/// then emits every function.
class Generator {
public:
  Generator(const ir::Module &M, const Options &Opts) : M(M), Opts(Opts) {}

  Result run();

  const ir::Module &M;
  const Options &Opts;
  std::vector<SymTarget> SymMap; ///< Per ir::Module symbol index.
  std::string Error;

  void fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
  }
};

/// Per-function emitter.
class FunctionEmitter {
public:
  FunctionEmitter(Generator &G, const ir::Function &IRF, vm::VMFunction &VF)
      : G(G), IRF(IRF), VF(VF) {}

  void run();

private:
  enum class Adj { None, LocalBase, FrameTotal, TempBase };

  //===-- Instruction emission with frame fixups --------------------------===

  uint32_t emit(Instr In, Adj A = Adj::None) {
    uint32_t Idx = static_cast<uint32_t>(Body.size());
    Body.push_back(In);
    if (A != Adj::None)
      Fixups.push_back({Idx, A});
    return Idx;
  }

  void emitRRR(VMOp Op, unsigned Rd, unsigned Rs1, unsigned Rs2) {
    Instr In;
    In.Op = Op;
    In.Rd = static_cast<uint8_t>(Rd);
    In.Rs1 = static_cast<uint8_t>(Rs1);
    In.Rs2 = static_cast<uint8_t>(Rs2);
    emit(In);
  }

  void emitRR(VMOp Op, unsigned Rd, unsigned Rs1) {
    Instr In;
    In.Op = Op;
    In.Rd = static_cast<uint8_t>(Rd);
    In.Rs1 = static_cast<uint8_t>(Rs1);
    emit(In);
  }

  void emitLI(unsigned Rd, int32_t V) {
    Instr In;
    In.Op = VMOp::LI;
    In.Rd = static_cast<uint8_t>(Rd);
    In.Imm = V;
    emit(In);
  }

  /// rd = rs + imm(+region base), honoring NoImmediates.
  void emitAddImm(unsigned Rd, unsigned Rs, int32_t Imm, Adj A) {
    if (!G.Opts.NoImmediates) {
      Instr In;
      In.Op = VMOp::ADDI;
      In.Rd = static_cast<uint8_t>(Rd);
      In.Rs1 = static_cast<uint8_t>(Rs);
      In.Imm = Imm;
      emit(In, A);
      return;
    }
    // li rd, imm ; add rd, rs, rd  -- rd may equal rs only if rd != rs.
    unsigned Tmp = Rd != Rs ? Rd : unsigned(vm::AT);
    Instr In;
    In.Op = VMOp::LI;
    In.Rd = static_cast<uint8_t>(Tmp);
    In.Imm = Imm;
    emit(In, A);
    emitRRR(VMOp::ADD, Rd, Rs, Tmp);
  }

  /// Emits a load/store with displacement, honoring NoRegDisp (which
  /// permits only zero displacements) and NoImmediates.
  void emitMem(VMOp Op, unsigned ValReg, unsigned Base, int32_t Off,
               Adj A) {
    if (!G.Opts.NoRegDisp || (Off == 0 && A == Adj::None)) {
      Instr In;
      In.Op = Op;
      In.Rd = static_cast<uint8_t>(ValReg);
      In.Rs1 = static_cast<uint8_t>(Base);
      In.Imm = Off;
      emit(In, A);
      return;
    }
    emitAddImm(vm::AT, Base, Off, A);
    Instr In;
    In.Op = Op;
    In.Rd = static_cast<uint8_t>(ValReg);
    In.Rs1 = vm::AT;
    In.Imm = 0;
    emit(In);
  }

  //===-- Evaluation registers ---------------------------------------------===

  static constexpr unsigned NumEvalRegs = 8; // n4..n11.

  unsigned evalReg(unsigned Depth) {
    assert(Depth < NumEvalRegs);
    MaxDepthUsed = std::max(MaxDepthUsed, Depth + 1);
    return vm::N4 + Depth;
  }

  uint32_t allocTempSlot() {
    uint32_t Slot = NumTempSlots++;
    return Slot * 4; // Offset within the temp region (TempBase fixup).
  }

  //===-- Type/size helpers -------------------------------------------------===

  static unsigned sizeOfSuffix(TypeSuffix S) {
    switch (S) {
    case TypeSuffix::C: return 1;
    case TypeSuffix::S: return 2;
    default: return 4;
    }
  }

  static VMOp loadOp(TypeSuffix S, bool Unsigned) {
    switch (S) {
    case TypeSuffix::C: return Unsigned ? VMOp::LD_BU : VMOp::LD_B;
    case TypeSuffix::S: return Unsigned ? VMOp::LD_HU : VMOp::LD_H;
    default: return VMOp::LD_W;
    }
  }

  static VMOp storeOp(TypeSuffix S) {
    switch (S) {
    case TypeSuffix::C: return VMOp::ST_B;
    case TypeSuffix::S: return VMOp::ST_H;
    default: return VMOp::ST_W;
    }
  }

  //===-- Addressing ---------------------------------------------------------

  /// A resolved memory operand: base register + displacement (+ region).
  struct MemAddr {
    unsigned Base = 0;
    int32_t Off = 0;
    Adj A = Adj::None;
  };

  /// Resolves an address tree into (base, offset) using register-
  /// displacement addressing where possible. \p Depth is the free
  /// evaluation depth for computed bases.
  MemAddr resolveAddr(const Tree *T, unsigned Depth) {
    switch (T->O) {
    case Op::ADDRL:
      return {vm::SP, static_cast<int32_t>(T->Literal), Adj::LocalBase};
    case Op::ADDRF:
      return {vm::SP, static_cast<int32_t>(T->Literal), Adj::FrameTotal};
    case Op::ADDRG: {
      const SymTarget &ST = G.SymMap[static_cast<size_t>(T->Literal)];
      if (ST.Kind != SymTarget::Data) {
        G.fail("address of non-data symbol in memory operand");
        return {vm::ZR, 0, Adj::None};
      }
      return {vm::ZR, static_cast<int32_t>(ST.Addr), Adj::None};
    }
    case Op::ADD:
      // base + constant: classic register-displacement.
      if (T->Suffix == TypeSuffix::P && T->Kids[1]->O == Op::CNST) {
        unsigned Base = evalExpr(T->Kids[0], Depth);
        return {Base, static_cast<int32_t>(T->Kids[1]->Literal),
                Adj::None};
      }
      break;
    default:
      break;
    }
    unsigned Base = evalExpr(T, Depth);
    return {Base, 0, Adj::None};
  }

  //===-- Expression evaluation ----------------------------------------------

  unsigned evalExpr(const Tree *T, unsigned Depth);
  void evalBinary(const Tree *T, unsigned Depth);
  void emitCall(const Tree *Call, unsigned ResultDepth);
  void emitBranchTree(const Tree *T);
  void emitStatement(const Tree *T);

  static bool isPow2(int64_t V) { return V > 0 && (V & (V - 1)) == 0; }
  static unsigned log2u(int64_t V) {
    unsigned L = 0;
    while ((1ll << L) < V)
      ++L;
    return L;
  }

  Generator &G;
  const ir::Function &IRF;
  vm::VMFunction &VF;

  std::vector<Instr> Body;
  std::vector<std::pair<uint32_t, Adj>> Fixups;
  std::vector<std::pair<uint32_t, uint32_t>> LabelDefs; ///< (label, bodyidx)

  std::vector<const Tree *> PendingArgs;

  unsigned MaxDepthUsed = 0;
  uint32_t NumTempSlots = 0;
  bool HasCall = false;
  uint32_t MaxOutArgs = 0;
  uint32_t RetLabel = 0;
};

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

unsigned FunctionEmitter::evalExpr(const Tree *T, unsigned Depth) {
  switch (T->O) {
  case Op::CNST: {
    unsigned R = evalReg(Depth);
    emitLI(R, static_cast<int32_t>(T->Literal));
    return R;
  }
  case Op::ADDRL: {
    unsigned R = evalReg(Depth);
    emitAddImm(R, vm::SP, static_cast<int32_t>(T->Literal),
               Adj::LocalBase);
    return R;
  }
  case Op::ADDRF: {
    unsigned R = evalReg(Depth);
    emitAddImm(R, vm::SP, static_cast<int32_t>(T->Literal),
               Adj::FrameTotal);
    return R;
  }
  case Op::ADDRG: {
    unsigned R = evalReg(Depth);
    const SymTarget &ST = G.SymMap[static_cast<size_t>(T->Literal)];
    if (ST.Kind != SymTarget::Data) {
      G.fail("cannot take the value of symbol (function address?)");
      emitLI(R, 0);
      return R;
    }
    emitLI(R, static_cast<int32_t>(ST.Addr));
    return R;
  }
  case Op::INDIR: {
    unsigned R = evalReg(Depth);
    MemAddr A = resolveAddr(T->Kids[0], Depth);
    emitMem(loadOp(T->Suffix, /*Unsigned=*/false), R, A.Base, A.Off, A.A);
    return R;
  }
  case Op::ZXT8:
  case Op::ZXT16: {
    // Unsigned sub-word load idiom: ZXT(INDIR) selects ld.ibu / ld.ihu.
    const Tree *K = T->Kids[0];
    bool Byte = T->O == Op::ZXT8;
    if (K->O == Op::INDIR &&
        sizeOfSuffix(K->Suffix) == (Byte ? 1u : 2u)) {
      unsigned R = evalReg(Depth);
      MemAddr A = resolveAddr(K->Kids[0], Depth);
      emitMem(loadOp(K->Suffix, /*Unsigned=*/true), R, A.Base, A.Off, A.A);
      return R;
    }
    unsigned R = evalExpr(K, Depth);
    emitRR(Byte ? VMOp::ZXTB : VMOp::ZXTH, R, R);
    return R;
  }
  case Op::SXT8: {
    unsigned R = evalExpr(T->Kids[0], Depth);
    emitRR(VMOp::SXTB, R, R);
    return R;
  }
  case Op::SXT16: {
    unsigned R = evalExpr(T->Kids[0], Depth);
    emitRR(VMOp::SXTH, R, R);
    return R;
  }
  case Op::NEG: {
    unsigned R = evalExpr(T->Kids[0], Depth);
    emitRR(VMOp::NEG, R, R);
    return R;
  }
  case Op::BCOM: {
    unsigned R = evalExpr(T->Kids[0], Depth);
    emitRR(VMOp::NOT, R, R);
    return R;
  }
  case Op::ADD: case Op::SUB: case Op::MUL: case Op::DIV: case Op::MOD:
  case Op::BAND: case Op::BOR: case Op::BXOR: case Op::LSH: case Op::RSH:
    evalBinary(T, Depth);
    return evalReg(Depth);
  case Op::CALL: {
    emitCall(T, Depth);
    unsigned R = evalReg(Depth);
    emitRR(VMOp::MOV, R, vm::N0);
    return R;
  }
  default:
    G.fail(std::string("cannot evaluate IR op ") + ir::opName(T->O));
    return evalReg(Depth);
  }
}

void FunctionEmitter::evalBinary(const Tree *T, unsigned Depth) {
  bool Unsigned = T->Suffix == TypeSuffix::U;
  VMOp RegOp;
  VMOp ImmOp = VMOp::NumOps;
  switch (T->O) {
  case Op::ADD: RegOp = VMOp::ADD; ImmOp = VMOp::ADDI; break;
  case Op::SUB: RegOp = VMOp::SUB; break; // subi via addi -imm.
  case Op::MUL: RegOp = VMOp::MUL; ImmOp = VMOp::MULI; break;
  case Op::DIV: RegOp = Unsigned ? VMOp::DIVU : VMOp::DIV; break;
  case Op::MOD: RegOp = Unsigned ? VMOp::REMU : VMOp::REM; break;
  case Op::BAND: RegOp = VMOp::AND; ImmOp = VMOp::ANDI; break;
  case Op::BOR: RegOp = VMOp::OR; ImmOp = VMOp::ORI; break;
  case Op::BXOR: RegOp = VMOp::XOR; ImmOp = VMOp::XORI; break;
  case Op::LSH: RegOp = VMOp::SLL; ImmOp = VMOp::SLLI; break;
  case Op::RSH:
    RegOp = Unsigned ? VMOp::SRL : VMOp::SRA;
    ImmOp = Unsigned ? VMOp::SRLI : VMOp::SRAI;
    break;
  default:
    ccomp_unreachable("not a binary operator");
  }

  const Tree *L = T->Kids[0];
  const Tree *R = T->Kids[1];

  // Immediate right operand (if the machine variant allows it).
  if (R->O == Op::CNST && !G.Opts.NoImmediates) {
    int64_t V = R->Literal;
    // Strength reduction: multiply/divide/modulo by powers of two.
    if (T->O == Op::MUL && isPow2(V)) {
      unsigned RL = evalExpr(L, Depth);
      Instr In;
      In.Op = VMOp::SLLI;
      In.Rd = In.Rs1 = static_cast<uint8_t>(RL);
      In.Imm = static_cast<int32_t>(log2u(V));
      emit(In);
      return;
    }
    if (T->O == Op::DIV && Unsigned && isPow2(V)) {
      unsigned RL = evalExpr(L, Depth);
      Instr In;
      In.Op = VMOp::SRLI;
      In.Rd = In.Rs1 = static_cast<uint8_t>(RL);
      In.Imm = static_cast<int32_t>(log2u(V));
      emit(In);
      return;
    }
    if (T->O == Op::MOD && Unsigned && isPow2(V)) {
      unsigned RL = evalExpr(L, Depth);
      Instr In;
      In.Op = VMOp::ANDI;
      In.Rd = In.Rs1 = static_cast<uint8_t>(RL);
      In.Imm = static_cast<int32_t>(V - 1);
      emit(In);
      return;
    }
    if (T->O == Op::SUB) {
      unsigned RL = evalExpr(L, Depth);
      Instr In;
      In.Op = VMOp::ADDI;
      In.Rd = In.Rs1 = static_cast<uint8_t>(RL);
      In.Imm = static_cast<int32_t>(-V);
      emit(In);
      return;
    }
    if (ImmOp != VMOp::NumOps) {
      unsigned RL = evalExpr(L, Depth);
      Instr In;
      In.Op = ImmOp;
      In.Rd = In.Rs1 = static_cast<uint8_t>(RL);
      In.Imm = static_cast<int32_t>(V);
      emit(In);
      return;
    }
  }

  // General register-register path, with spilling at the depth limit.
  if (Depth + 1 >= NumEvalRegs) {
    uint32_t SlotOff = allocTempSlot();
    unsigned RL = evalExpr(L, Depth);
    emitMem(VMOp::ST_W, RL, vm::SP, static_cast<int32_t>(SlotOff),
            Adj::TempBase);
    unsigned RR = evalExpr(R, Depth);
    emitMem(VMOp::LD_W, vm::AT, vm::SP, static_cast<int32_t>(SlotOff),
            Adj::TempBase);
    emitRRR(RegOp, evalReg(Depth), vm::AT, RR);
    return;
  }
  unsigned RL = evalExpr(L, Depth);
  unsigned RR = evalExpr(R, Depth + 1);
  emitRRR(RegOp, RL, RL, RR);
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

void FunctionEmitter::emitCall(const Tree *Call, unsigned ResultDepth) {
  std::vector<const Tree *> Args = std::move(PendingArgs);
  PendingArgs.clear();
  MaxOutArgs = std::max<uint32_t>(MaxOutArgs,
                                  static_cast<uint32_t>(Args.size()));

  const Tree *Callee = Call->Kids[0];
  if (Callee->O != Op::ADDRG) {
    G.fail("indirect calls are not supported");
    return;
  }
  const SymTarget &ST = G.SymMap[static_cast<size_t>(Callee->Literal)];

  // Stack arguments first (they may use the evaluation stack freely).
  for (size_t I = 4; I < Args.size(); ++I) {
    unsigned R = evalExpr(Args[I]->Kids[0], ResultDepth);
    emitMem(VMOp::ST_W, R, vm::SP, static_cast<int32_t>(4 * (I - 4)),
            Adj::None);
  }
  // Register arguments: evaluate into the evaluation stack, then move
  // into n0..n3 (the moves mirror the paper's mov.i n1,n4 idiom).
  unsigned NReg = static_cast<unsigned>(std::min<size_t>(Args.size(), 4));
  std::vector<unsigned> Held(NReg);
  for (unsigned I = 0; I != NReg; ++I)
    Held[I] = evalExpr(Args[I]->Kids[0], ResultDepth + I);
  for (unsigned I = 0; I != NReg; ++I)
    emitRR(VMOp::MOV, vm::N0 + I, Held[I]);

  if (ST.Kind == SymTarget::Sys) {
    Instr In;
    In.Op = VMOp::SYS;
    In.Imm = static_cast<int32_t>(ST.B->Id);
    emit(In);
    HasCall = true; // Conservative: syscalls do not clobber ra, but the
                    // shared prologue shape is kept uniform.
    return;
  }
  if (ST.Kind != SymTarget::Func) {
    G.fail("call to non-function symbol");
    return;
  }
  Instr In;
  In.Op = VMOp::CALL;
  In.Target = ST.FuncIdx;
  emit(In);
  HasCall = true;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void FunctionEmitter::emitBranchTree(const Tree *T) {
  bool Unsigned = T->Suffix == TypeSuffix::U || T->Suffix == TypeSuffix::P;
  VMOp RegOp, ImmOp;
  switch (T->O) {
  case Op::EQ: RegOp = VMOp::BEQ; ImmOp = VMOp::BEQI; break;
  case Op::NE: RegOp = VMOp::BNE; ImmOp = VMOp::BNEI; break;
  case Op::LT:
    RegOp = Unsigned ? VMOp::BLTU : VMOp::BLT;
    ImmOp = Unsigned ? VMOp::BLTUI : VMOp::BLTI;
    break;
  case Op::LE:
    RegOp = Unsigned ? VMOp::BLEU : VMOp::BLE;
    ImmOp = Unsigned ? VMOp::BLEUI : VMOp::BLEI;
    break;
  case Op::GT:
    RegOp = Unsigned ? VMOp::BGTU : VMOp::BGT;
    ImmOp = Unsigned ? VMOp::BGTUI : VMOp::BGTI;
    break;
  case Op::GE:
    RegOp = Unsigned ? VMOp::BGEU : VMOp::BGE;
    ImmOp = Unsigned ? VMOp::BGEUI : VMOp::BGEI;
    break;
  default:
    ccomp_unreachable("not a branch tree");
  }
  uint32_t Label = static_cast<uint32_t>(T->Literal);

  unsigned RL = evalExpr(T->Kids[0], 0);
  if (T->Kids[1]->O == Op::CNST && !G.Opts.NoImmediates) {
    Instr In;
    In.Op = ImmOp;
    In.Rs1 = static_cast<uint8_t>(RL);
    In.Imm = static_cast<int32_t>(T->Kids[1]->Literal);
    In.Target = Label;
    emit(In);
    return;
  }
  unsigned RR = evalExpr(T->Kids[1], 1);
  Instr In;
  In.Op = RegOp;
  In.Rs1 = static_cast<uint8_t>(RL);
  In.Rs2 = static_cast<uint8_t>(RR);
  In.Target = Label;
  emit(In);
}

void FunctionEmitter::emitStatement(const Tree *T) {
  switch (T->O) {
  case Op::LABEL:
    LabelDefs.push_back({static_cast<uint32_t>(T->Literal),
                         static_cast<uint32_t>(Body.size())});
    return;
  case Op::JUMP: {
    Instr In;
    In.Op = VMOp::JMP;
    In.Target = static_cast<uint32_t>(T->Literal);
    emit(In);
    return;
  }
  case Op::EQ: case Op::NE: case Op::LT: case Op::LE: case Op::GT:
  case Op::GE:
    emitBranchTree(T);
    return;
  case Op::ARG:
    PendingArgs.push_back(T);
    return;
  case Op::CALL:
    emitCall(T, 0);
    return;
  case Op::ASGN: {
    const Tree *Addr = T->Kids[0];
    const Tree *Val = T->Kids[1];
    unsigned VR;
    if (Val->O == Op::CALL) {
      emitCall(Val, 0);
      VR = vm::N0;
    } else {
      VR = evalExpr(Val, 0);
    }
    // Resolve the address with the value's depth reserved.
    unsigned FreeDepth = VR == vm::N0 ? 0 : (VR - vm::N4 + 1);
    MemAddr A = resolveAddr(Addr, FreeDepth);
    emitMem(storeOp(T->Suffix), VR, A.Base, A.Off, A.A);
    return;
  }
  case Op::ASGNB: {
    unsigned RD = evalExpr(T->Kids[0], 0);
    unsigned RS = evalExpr(T->Kids[1], 1);
    Instr In;
    In.Op = VMOp::MCPY;
    In.Rd = static_cast<uint8_t>(RD);
    In.Rs1 = static_cast<uint8_t>(RS);
    In.Imm = static_cast<int32_t>(T->Literal);
    emit(In);
    return;
  }
  case Op::RET: {
    if (T->NKids == 1) {
      if (T->Kids[0]->O == Op::CALL) {
        emitCall(T->Kids[0], 0);
        // Result already in n0.
      } else {
        unsigned R = evalExpr(T->Kids[0], 0);
        if (R != vm::N0)
          emitRR(VMOp::MOV, vm::N0, R);
      }
    }
    Instr In;
    In.Op = VMOp::JMP;
    In.Target = RetLabel;
    emit(In);
    return;
  }
  default:
    // A pure expression used as a statement: evaluate for any traps it
    // may raise, discard the value.
    evalExpr(T, 0);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Function assembly: prologue, body patching, epilogue
//===----------------------------------------------------------------------===//

void FunctionEmitter::run() {
  RetLabel = IRF.NumLabels;

  for (const Tree *T : IRF.Forest)
    emitStatement(T);

  // Layout now that SaveBytes/TempBytes are known.
  uint32_t OutBytes = MaxOutArgs > 4 ? 4 * (MaxOutArgs - 4) : 0;
  unsigned SavedRegs = MaxDepthUsed; // n4..n4+MaxDepthUsed-1.
  bool SaveRA = HasCall;
  uint32_t SaveBytes = 4 * (SavedRegs + (SaveRA ? 1 : 0));
  uint32_t LocalBase = OutBytes + SaveBytes;
  uint32_t TempBase = LocalBase + IRF.FrameSize;
  uint32_t Frame = (TempBase + 4 * NumTempSlots + 7) & ~7u;

  for (auto [Idx, A] : Fixups) {
    int32_t Delta = 0;
    switch (A) {
    case Adj::LocalBase: Delta = static_cast<int32_t>(LocalBase); break;
    case Adj::FrameTotal: Delta = static_cast<int32_t>(Frame); break;
    case Adj::TempBase: Delta = static_cast<int32_t>(TempBase); break;
    case Adj::None: break;
    }
    Body[Idx].Imm += Delta;
  }

  // Prologue: enter; spill callee-saved and ra; store register params.
  std::vector<Instr> Pro;
  auto ProInstr = [&Pro](VMOp Op, uint8_t Rd, uint8_t Rs1, int32_t Imm) {
    Instr In;
    In.Op = Op;
    In.Rd = Rd;
    In.Rs1 = Rs1;
    In.Imm = Imm;
    Pro.push_back(In);
  };
  if (Frame != 0)
    ProInstr(VMOp::ENTER, 0, 0, static_cast<int32_t>(Frame));
  uint32_t SaveOff = OutBytes;
  std::vector<vm::FuncMeta::Save> Saves;
  for (unsigned I = 0; I != SavedRegs; ++I) {
    ProInstr(VMOp::SPILL, static_cast<uint8_t>(vm::N4 + I), 0,
             static_cast<int32_t>(SaveOff));
    Saves.push_back({static_cast<uint8_t>(vm::N4 + I),
                     static_cast<int32_t>(SaveOff)});
    SaveOff += 4;
  }
  if (SaveRA) {
    ProInstr(VMOp::SPILL, vm::RA, 0, static_cast<int32_t>(SaveOff));
    Saves.push_back({vm::RA, static_cast<int32_t>(SaveOff)});
    SaveOff += 4;
  }
  // Register parameters into their frame slots.
  for (size_t I = 0; I != IRF.ParamSlots.size() && I < 4; ++I)
    ProInstr(VMOp::ST_W, static_cast<uint8_t>(vm::N0 + I), vm::SP,
             static_cast<int32_t>(LocalBase + IRF.ParamSlots[I]));

  // NoRegDisp legalization for the parameter stores (SPILL/RELOAD are
  // macro-ops and always allowed).
  if (G.Opts.NoRegDisp) {
    std::vector<Instr> Fixed;
    for (const Instr &In : Pro) {
      if (In.Op == VMOp::ST_W && In.Imm != 0) {
        if (!G.Opts.NoImmediates) {
          Instr AddI;
          AddI.Op = VMOp::ADDI;
          AddI.Rd = vm::AT;
          AddI.Rs1 = vm::SP;
          AddI.Imm = In.Imm;
          Fixed.push_back(AddI);
        } else {
          Instr Li;
          Li.Op = VMOp::LI;
          Li.Rd = vm::AT;
          Li.Imm = In.Imm;
          Fixed.push_back(Li);
          Instr Add;
          Add.Op = VMOp::ADD;
          Add.Rd = vm::AT;
          Add.Rs1 = vm::SP;
          Add.Rs2 = vm::AT;
          Fixed.push_back(Add);
        }
        Instr St = In;
        St.Rs1 = vm::AT;
        St.Imm = 0;
        Fixed.push_back(St);
      } else {
        Fixed.push_back(In);
      }
    }
    Pro = std::move(Fixed);
  }

  // Epilogue: shared return label; reload; exit; rjr ra.
  std::vector<Instr> Epi;
  for (size_t I = Saves.size(); I-- > 0;) {
    Instr In;
    In.Op = VMOp::RELOAD;
    In.Rd = Saves[I].Reg;
    In.Imm = Saves[I].Off;
    Epi.push_back(In);
  }
  if (Frame != 0) {
    Instr In;
    In.Op = VMOp::EXIT;
    In.Imm = static_cast<int32_t>(Frame);
    Epi.push_back(In);
  }
  {
    Instr In;
    In.Op = VMOp::RJR;
    In.Rd = vm::RA;
    Epi.push_back(In);
  }

  // Assemble: prologue + body + epilogue; labels shift by |Pro|.
  uint32_t ProLen = static_cast<uint32_t>(Pro.size());
  VF.FrameSize = Frame;
  VF.Code.clear();
  VF.Code.reserve(Pro.size() + Body.size() + Epi.size()); // Exact: long-lived.
  VF.Code.insert(VF.Code.end(), Pro.begin(), Pro.end());
  VF.Code.insert(VF.Code.end(), Body.begin(), Body.end());
  uint32_t EpiStart = static_cast<uint32_t>(VF.Code.size());
  VF.Code.insert(VF.Code.end(), Epi.begin(), Epi.end());

  VF.LabelPos.assign(IRF.NumLabels + 1, 0);
  for (auto [L, Idx] : LabelDefs)
    VF.LabelPos[L] = Idx + ProLen;
  VF.LabelPos[RetLabel] = EpiStart;
}

//===----------------------------------------------------------------------===//
// Module-level generation
//===----------------------------------------------------------------------===//

Result Generator::run() {
  Result Res;
  vm::VMProgram &P = Res.P;

  // Function indices.
  std::map<std::string, uint32_t> FuncIdx;
  for (uint32_t I = 0; I != M.Functions.size(); ++I) {
    FuncIdx[M.Functions[I]->Name] = I;
    vm::VMFunction F;
    F.Name = M.Functions[I]->Name;
    P.Functions.push_back(std::move(F));
  }

  // Global layout.
  uint32_t Addr = P.GlobalBase;
  std::map<uint32_t, uint32_t> GlobalAddr; // symbol index -> address.
  for (const ir::Global &G : M.Globals) {
    uint32_t Align = std::max<uint32_t>(G.Align, 1);
    Addr = (Addr + Align - 1) & ~(Align - 1);
    vm::VMGlobal VG;
    VG.Name = M.Symbols[G.SymbolIndex].Name;
    VG.Addr = Addr;
    VG.Size = G.Size;
    VG.Init = G.Init;
    GlobalAddr[G.SymbolIndex] = Addr;
    Addr += G.Size;
    P.Globals.push_back(std::move(VG));
  }
  P.GlobalEnd = Addr;

  // Symbol resolution map.
  SymMap.resize(M.Symbols.size());
  for (uint32_t I = 0; I != M.Symbols.size(); ++I) {
    const ir::Symbol &S = M.Symbols[I];
    auto FIt = FuncIdx.find(S.Name);
    if (FIt != FuncIdx.end()) {
      SymMap[I].Kind = SymTarget::Func;
      SymMap[I].FuncIdx = FIt->second;
      continue;
    }
    auto GIt = GlobalAddr.find(I);
    if (GIt != GlobalAddr.end()) {
      SymMap[I].Kind = SymTarget::Data;
      SymMap[I].Addr = GIt->second;
      continue;
    }
    if (const Builtin *B = findBuiltin(S.Name)) {
      SymMap[I].Kind = SymTarget::Sys;
      SymMap[I].B = B;
      continue;
    }
    SymMap[I].Kind = SymTarget::Undefined;
  }

  // Emit every function.
  for (uint32_t I = 0; I != M.Functions.size(); ++I) {
    FunctionEmitter FE(*this, *M.Functions[I], P.Functions[I]);
    FE.run();
    if (!Error.empty()) {
      Res.Error = M.Functions[I]->Name + ": " + Error;
      return Res;
    }
  }

  int32_t Main = P.findFunction("main");
  P.Entry = Main >= 0 ? static_cast<uint32_t>(Main) : 0;

  std::string VErr = vm::verify(P);
  if (!VErr.empty())
    Res.Error = "internal: VM verification failed: " + VErr;
  return Res;
}

} // namespace

Result codegen::generate(const ir::Module &M, const Options &Opts) {
  Generator G(M, Opts);
  return G.run();
}
