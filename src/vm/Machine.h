//===- vm/Machine.h - VM state and interpreter ------------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual machine: registers, flat little-endian memory, system
/// calls, and the reference interpreter. The BRISC in-place interpreter
/// and the threaded-code backend reuse Machine for all architectural
/// state and for the data-instruction semantics, so all three execution
/// engines share one definition of the ISA's behaviour.
///
/// Code addresses (the values in ra) are synthetic: bit 31 set,
/// bits 30..16 = function index, bits 15..0 = instruction index.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_VM_MACHINE_H
#define CCOMP_VM_MACHINE_H

#include "vm/Program.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ccomp {
namespace vm {

class Machine;

/// A resolved, contiguous slice of one function's code — the unit the
/// interpreter executes from. A whole-function resolver hands out the
/// entire body as one span; a page-granular resolver (a paged CodeStore)
/// hands out the decoded page containing the requested instruction, so
/// control transfers into cold pages fault only that page in.
///
/// Code points at the instructions of [Begin, End); indexing is
/// Code[Pc - Begin]. Labels and Name describe the *whole* function (a
/// branch target may land outside this span, which makes the
/// interpreter re-resolve). Keep pins whatever storage Code points
/// into; Labels/Name must outlive the span's use (they typically point
/// into the resolver's own tables or into *Keep). Keep is also what
/// makes multi-tenant serving safe: a shared frame registry may evict
/// the cache entry behind this span at any moment on another tenant's
/// fault, and the shared_ptr keeps the decoded body alive until the
/// interpreter is done with it regardless.
struct CodeSpan {
  std::shared_ptr<const VMFunction> Keep;
  const Instr *Code = nullptr;
  uint32_t Begin = 0;   ///< First instruction index covered.
  uint32_t End = 0;     ///< One past the last instruction covered.
  uint32_t FuncLen = 0; ///< Total instruction count of the function.
  const std::vector<uint32_t> *Labels = nullptr; ///< Function label table.
  const std::string *Name = nullptr;             ///< For diagnostics.

  bool contains(uint32_t Idx) const { return Idx >= Begin && Idx < End; }
};

/// Supplies function bodies to the interpreter on demand. The default
/// (no resolver) executes straight out of VMProgram::Functions; a
/// resolver lets call/return transfers fault bodies in lazily from a
/// compressed store (store::StoreBackedResolver) instead of requiring a
/// fully decoded module up front.
///
/// Thread-safety: resolve()/resolveSpan() may be called from whichever
/// thread runs the Machine; implementations shared between machines must
/// synchronize internally.
class FunctionResolver {
public:
  virtual ~FunctionResolver();

  /// Number of resolvable functions (indices [0, count)).
  virtual uint32_t functionCount() const = 0;

  /// Returns function \p Fn, keeping the body alive at least as long as
  /// the returned handle. Null with \p Err set on a recoverable failure
  /// (e.g. a corrupt compressed frame): the interpreter traps that run
  /// and the process carries on.
  virtual std::shared_ptr<const VMFunction> resolve(uint32_t Fn,
                                                    std::string &Err) = 0;

  /// Resolves the span containing instruction \p Idx of function \p Fn.
  /// The base implementation forwards to resolve() and returns the whole
  /// body as one span; page-granular resolvers override it to decode
  /// only the page holding \p Idx. An \p Idx at or past the end of the
  /// function must still yield a valid span (clamp to the last page) —
  /// the interpreter detects the out-of-range Pc against FuncLen and
  /// traps with the function's name. Returns false with \p Err set on a
  /// recoverable failure.
  virtual bool resolveSpan(uint32_t Fn, uint32_t Idx, CodeSpan &Out,
                           std::string &Err);

  /// Optional execution-tier hook, consulted at every cross-function
  /// transfer (initial entry, call, return) before the span resolve. A
  /// tiering resolver (store::TieredResolver) may run (\p Fn, \p Idx)
  /// on a faster backend: if it executed anything it returns true with
  /// Fn/Idx advanced to where control left the fast tier (or with \p M
  /// halted/trapped), and \p Steps charged one step per executed
  /// instruction exactly as the interpreter would have. The interpreter
  /// re-consults the hook with the updated target, so an implementation
  /// must either make progress or decline. The default declines:
  /// everything interprets.
  virtual bool enterNative(Machine &M, uint32_t &Fn, uint32_t &Idx,
                           uint64_t &Steps);
};

/// A block-granular resolver over a fully decoded program: resolveSpan
/// hands out exactly the basic block (blockCuts) containing the
/// requested instruction, so every control transfer that leaves the
/// current block re-resolves — the same fault pattern a paged CodeStore
/// would see. This is what the trace recorder runs under to observe
/// block-level transfers without any store in the loop. The program must
/// outlive the resolver; spans alias its storage (non-owning Keep).
class ProgramSpanResolver : public FunctionResolver {
public:
  explicit ProgramSpanResolver(const VMProgram &P);

  uint32_t functionCount() const override;
  std::shared_ptr<const VMFunction> resolve(uint32_t Fn,
                                            std::string &Err) override;
  bool resolveSpan(uint32_t Fn, uint32_t Idx, CodeSpan &Out,
                   std::string &Err) override;

private:
  const VMProgram &Prog;
  std::vector<std::vector<uint32_t>> Cuts; ///< Per-function block cuts.
};

/// Optional mapping from (function, instruction) to code byte offsets in
/// some concrete encoding, used for working-set / paging measurements.
struct CodeLayout {
  std::vector<uint32_t> FuncBase;              ///< Per-function byte base.
  std::vector<std::vector<uint32_t>> InstrOff; ///< Per-instr offset in fn.
  uint32_t TotalBytes = 0;
};

/// Interpreter limits and instrumentation switches.
struct RunOptions {
  uint64_t MaxSteps = 4ull << 30;
  size_t MemBytes = 8u << 20;
  const CodeLayout *Layout = nullptr; ///< Enable page tracking when set.
  uint32_t PageSize = 4096;
  size_t MaxPageTrace = 1u << 22;
  /// When set, function bodies come from the resolver and
  /// VMProgram::Functions may be empty (a skeleton holding only
  /// globals/entry). The resolver must outlive the run.
  FunctionResolver *Resolver = nullptr;
};

/// Outcome of a run.
struct RunResult {
  bool Ok = false;          ///< False on trap or step-limit exhaustion.
  int32_t ExitCode = 0;
  uint64_t Steps = 0;
  std::string Trap;         ///< Diagnostic when !Ok.
  std::string Output;       ///< Bytes written by Put* system calls.
  uint64_t PagesTouched = 0;          ///< Distinct code pages executed.
  std::vector<uint32_t> PageTrace;    ///< Run-length page reference string.
};

/// The VM's data memory: zero-filled, and committed page by page as the
/// program touches it (an anonymous mapping), so a run costs resident
/// memory only for the pages it uses rather than all of MemBytes.
class DataMemory {
public:
  explicit DataMemory(size_t Bytes);
  ~DataMemory();
  DataMemory(const DataMemory &) = delete;
  DataMemory &operator=(const DataMemory &) = delete;

  uint8_t *data() { return Ptr; }
  const uint8_t *data() const { return Ptr; }
  size_t size() const { return N; }
  uint8_t operator[](size_t I) const { return Ptr[I]; }

private:
  uint8_t *Ptr = nullptr;
  size_t N = 0;
};

/// VM architectural state plus the reference interpreter.
class Machine {
public:
  explicit Machine(const VMProgram &P, RunOptions Opts = RunOptions());

  /// Interprets from the entry function until exit/trap/step limit.
  RunResult run();

  //===--------------------------------------------------------------------===
  // Building blocks shared with the BRISC interpreter and the threaded
  // backend. These manipulate this Machine's state directly.
  //===--------------------------------------------------------------------===

  /// Executes a non-control-flow instruction (ALU, loads/stores, LI,
  /// ENTER/EXIT/SPILL/RELOAD, MCPY/MSET). Returns false if \p In is a
  /// control instruction the caller must handle.
  bool dataStep(const Instr &In);

  /// Evaluates a compare-and-branch condition.
  bool branchTaken(const Instr &In) const;

  /// Executes SYS \p Id. Sets Halted on Sys::Exit.
  void doSys(int32_t Id);

  /// Synthetic code addresses.
  static uint32_t encodeRet(uint32_t Func, uint32_t Idx) {
    return 0x80000000u | (Func << 16) | Idx;
  }
  static uint32_t retFunc(uint32_t RA) { return (RA >> 16) & 0x7FFF; }
  static uint32_t retIdx(uint32_t RA) { return RA & 0xFFFF; }
  static constexpr uint32_t HaltRA = 0xFFFFFFFFu;

  /// Halts as if the program returned from its entry function: the exit
  /// status is n0. Used by the alternate execution engines when control
  /// returns through the sentinel ra value.
  void haltWithN0() {
    Halted = true;
    Exit = static_cast<int32_t>(R[N0]);
  }

  /// Halts with an explicit exit status; how the native tier commits a
  /// Sys::Exit or halt-through-ra it executed on borrowed state.
  void haltWithExit(int32_t Code) {
    Halted = true;
    Exit = Code;
  }

  void trap(const std::string &Msg) {
    if (Trapped)
      return;
    Trapped = true;
    TrapMsg = Msg;
  }

  bool halted() const { return Halted || Trapped; }
  bool trapped() const { return Trapped; }
  const std::string &trapMessage() const { return TrapMsg; }
  int32_t exitCode() const { return Exit; }
  const std::string &output() const { return Out; }

  uint32_t reg(unsigned I) const { return R[I]; }
  void setReg(unsigned I, uint32_t V) {
    R[I] = V;
    R[ZR] = 0;
  }

  const VMProgram &program() const { return Prog; }
  const RunOptions &options() const { return Opts; }

  //===--------------------------------------------------------------------===
  // Raw architectural state, for the native tier (native::runTiered):
  // threaded code borrows the register file, memory, heap pointer, and
  // output buffer, executes in place, and commits halts/traps back
  // through haltWithExit()/trap().
  //===--------------------------------------------------------------------===
  uint32_t *regs() { return R; }
  uint8_t *memData() { return Mem.data(); }
  size_t memSize() const { return Mem.size(); }
  uint32_t heapPtr() const { return HeapPtr; }
  void setHeapPtr(uint32_t V) { HeapPtr = V; }
  std::string &outputBuffer() { return Out; }

  /// Records execution of code byte range for instruction \p Idx of
  /// function \p Fn (no-op unless a layout is configured).
  void touchCode(uint32_t Fn, uint32_t Idx);

  uint64_t pagesTouched() const;
  const std::vector<uint32_t> &pageTrace() const { return PageTrace; }

  /// Executes the reloads/exit/return of EPI using \p Meta; returns the
  /// new ra value to jump through.
  uint32_t execEpi(const FuncMeta &Meta);

  // Memory access (bounds-checked; traps on violation).
  uint32_t load(uint32_t Addr, unsigned Size, bool SignExtend);
  void store(uint32_t Addr, unsigned Size, uint32_t V);

private:
  void resetState();

  const VMProgram &Prog;
  RunOptions Opts;

  uint32_t R[16] = {0};
  DataMemory Mem;
  uint32_t HeapPtr = 0;

  bool Halted = false;
  bool Trapped = false;
  int32_t Exit = 0;
  std::string TrapMsg;
  std::string Out;

  // Page tracking.
  std::vector<uint8_t> PageSeen;
  std::vector<uint32_t> PageTrace;
  uint32_t LastPage = ~0u;
};

/// Convenience: build a Machine, run, return the result.
RunResult runProgram(const VMProgram &P, RunOptions Opts = RunOptions());

} // namespace vm
} // namespace ccomp

#endif // CCOMP_VM_MACHINE_H
