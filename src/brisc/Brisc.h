//===- brisc/Brisc.h - BRISC compressed executables -------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BRISC (Byte-coded RISC), section 4 of the paper: a dense, randomly
/// addressable program representation built by operand specialization
/// and opcode combination over linked VM programs, encoded byte-aligned
/// through an order-1 semi-static Markov model of instruction patterns
/// with a dedicated basic-block-start context.
///
/// A BriscProgram can be
///   - interpreted in place without decompression (brisc/Interp.h),
///   - expanded back to a VM program by the loader (decodeToVM, the
///     front half of the paper's just-in-time native code generation),
///   - serialized to a byte image whose size is what the paper's tables
///     report (dictionary + Markov tables + code + block maps).
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_BRISC_BRISC_H
#define CCOMP_BRISC_BRISC_H

#include "brisc/Pattern.h"
#include "support/Error.h"
#include "support/Span.h"
#include "vm/Machine.h"
#include "vm/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ccomp {
namespace brisc {

/// One compressed function.
struct BriscFunction {
  std::string Name;                ///< Not counted in the code segment.
  std::vector<uint8_t> Code;       ///< Opcode bytes + packed operands.
  std::vector<uint32_t> BBOffsets; ///< Sorted byte offsets of block starts.
};

/// Order-1 Markov successor lists, one per context, stored flat: the
/// list of context C is Ids[Start[C], Start[C + 1]).
class SuccessorTable {
public:
  /// A read-only view of one context's list.
  struct List {
    const uint32_t *B, *E;
    const uint32_t *begin() const { return B; }
    const uint32_t *end() const { return E; }
    size_t size() const { return static_cast<size_t>(E - B); }
    uint32_t operator[](size_t I) const { return B[I]; }
  };

  size_t numContexts() const { return Start.size() - 1; }

  List of(uint32_t Ctx) const {
    return {Ids.data() + Start[Ctx], Ids.data() + Start[Ctx + 1]};
  }

  /// The id opcode byte \p OpByte names in context \p Ctx, or ~0u when
  /// Ctx is no context or the byte is past its list.
  uint32_t lookup(uint32_t Ctx, uint8_t OpByte) const {
    if (Ctx >= numContexts() || OpByte >= Start[Ctx + 1] - Start[Ctx])
      return ~0u;
    return Ids[Start[Ctx] + OpByte];
  }

  /// Opens the next context, with an empty list.
  void addContext() { Start.push_back(Start.back()); }

  /// Appends \p Id to the list of the last context.
  void push(uint32_t Id) {
    Ids.push_back(Id);
    ++Start.back();
  }

private:
  std::vector<uint32_t> Ids;
  std::vector<uint32_t> Start{0};
};

/// A compressed executable.
struct BriscProgram {
  /// Dictionary entries the compressor added, ids vm::VMOp::NumOps and
  /// up; ids below are the base instruction set (basePatterns()).
  std::vector<Pattern> Added;

  /// Order-1 Markov model: the list of context ctx holds the pattern ids
  /// that can follow ctx, in first-occurrence order; the opcode byte is
  /// an index into this list (255 escapes to an explicit 2-byte id).
  /// Context ids equal pattern ids; the extra last context is the basic-
  /// block start context.
  SuccessorTable Successors;

  std::vector<BriscFunction> Funcs;
  uint32_t Entry = 0;

  // Data segment, carried through for execution (not part of the code
  // segment the paper's size comparisons measure).
  std::vector<vm::VMGlobal> Globals;
  uint32_t GlobalBase = 0x100;
  uint32_t GlobalEnd = 0x100;

  /// Dictionary size, base instruction set included.
  size_t numPatterns() const {
    return static_cast<size_t>(vm::VMOp::NumOps) + Added.size();
  }

  /// Pattern \p Id, which must be below numPatterns().
  const Pattern &pattern(uint32_t Id) const {
    constexpr uint32_t NumBase = static_cast<uint32_t>(vm::VMOp::NumOps);
    return Id < NumBase ? basePatterns()[Id] : Added[Id - NumBase];
  }

  uint32_t bbStartContext() const {
    return static_cast<uint32_t>(numPatterns());
  }

  /// Serializes the program. With \p IncludeData the globals ride along
  /// (a self-contained executable); without, the image is the code
  /// segment the paper's size tables measure.
  std::vector<uint8_t> serialize(bool IncludeData) const;

  /// Parses a serialized image of unknown provenance. Corrupt input
  /// (truncated, bit-flipped, inflated length fields) yields a typed
  /// DecodeError; no input crashes, hangs, or reads out of bounds.
  static Result<BriscProgram> parse(ByteSpan Bytes);

  /// Thin aborting wrapper over parse() for internal callers that only
  /// feed images this library produced itself: corrupt input is fatal.
  static BriscProgram deserialize(ByteSpan Bytes);

  /// Code-segment byte size (dictionary + tables + code + block maps).
  size_t codeSegmentBytes() const { return serialize(false).size(); }
};

/// Compression knobs (defaults follow the paper).
struct CompressOptions {
  unsigned K = 20;              ///< Patterns adopted per pass.
  /// Scale K up on large inputs (effective K = max(K, instrs/1500)) so
  /// gcc-class programs converge in a bounded number of passes. The
  /// paper treats K as a tunable; disable to reproduce K exactly.
  bool AutoK = true;
  bool AbundantMemory = false;  ///< B = P instead of B = P - W.
  bool EnableSpecialization = true;
  bool EnableCombination = true;
  bool EnableEpi = true;        ///< Recognize whole epilogues as "epi".
  unsigned MaxPasses = 200;
  unsigned MaxCombinedElems = 6;
};

/// Compression telemetry for the experiment harness.
struct CompressStats {
  unsigned Passes = 0;
  size_t CandidatesTested = 0; ///< Distinct candidate patterns examined.
  size_t DictPatterns = 0;     ///< Final dictionary size (incl. base).
  size_t DictBytes = 0;
  size_t MarkovBytes = 0;
  size_t CodeBytes = 0;
  size_t BBMapBytes = 0;
  size_t TotalBytes = 0;       ///< codeSegmentBytes().
};

/// Compresses a linked VM program into BRISC.
BriscProgram compress(const vm::VMProgram &P,
                      const CompressOptions &Opts = CompressOptions(),
                      CompressStats *Stats = nullptr);

/// The loader: expands BRISC back into a decoded VM program (the first
/// half of just-in-time native code generation). For a program produced
/// by compress() the result executes identically to the compressor's
/// input; for a parsed image of unknown provenance malformed code bytes
/// yield a typed DecodeError.
Result<vm::VMProgram> tryDecodeToVM(const BriscProgram &B);

/// Thin aborting wrapper over tryDecodeToVM() for internal callers
/// holding programs the compressor built in-process.
vm::VMProgram decodeToVM(const BriscProgram &B);

/// Code layout of the serialized image, for working-set measurements of
/// in-place interpretation. Instruction granularity is the slot byte.
struct BriscLayout {
  std::vector<uint32_t> FuncBase; ///< Byte base of each function's code.
  uint32_t FixedBytes = 0;        ///< Dictionary + tables (always resident).
  uint32_t TotalBytes = 0;
};
BriscLayout layoutOf(const BriscProgram &B);

} // namespace brisc
} // namespace ccomp

#endif // CCOMP_BRISC_BRISC_H
