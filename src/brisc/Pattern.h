//===- brisc/Pattern.h - BRISC instruction patterns -------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BRISC dictionary patterns: a pattern is a sequence of base
/// instructions (sequences longer than one arise from opcode
/// combination), each with a mask of operand-specialized fields whose
/// values are burned in, and a width class for every remaining field
/// (width narrowing is how the paper's -x4 scaled forms arise).
/// Patterns match concrete instruction sequences; matching instances are
/// encoded as one opcode byte plus the packed unspecified operands.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_BRISC_PATTERN_H
#define CCOMP_BRISC_PATTERN_H

#include "support/ByteIO.h"
#include "vm/ISA.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ccomp {
namespace brisc {

/// Encoding width of one unspecified operand field.
enum class Width : uint8_t {
  Nib,    ///< 4 bits (registers; immediates 0..15).
  NibX4,  ///< 4 bits, value scaled by 4 (the paper's -x4 suffix).
  B1,     ///< 1 byte, signed -128..127.
  B1X4,   ///< 1 byte, signed, scaled by 4.
  B2,     ///< 2 bytes, signed (also labels and function indices).
  B4,     ///< 4 bytes.
};

/// Returns true if \p V is representable in width \p W.
bool fitsWidth(Width W, int64_t V);

/// Bytes (possibly fractional nibbles -> use packing) of a width.
unsigned widthNibbles(Width W);

/// One element of a pattern: a base opcode, specialization mask, burned
/// values, and widths for the unspecified fields.
struct SpecInstr {
  vm::VMOp Op = vm::VMOp::NumOps;
  uint8_t SpecMask = 0;                 ///< Bit i: field i specialized.
  int32_t SpecVals[vm::MaxFields] = {0, 0, 0};
  Width Widths[vm::MaxFields] = {Width::B4, Width::B4, Width::B4};

  bool specialized(unsigned F) const { return (SpecMask >> F) & 1; }
};

/// A dictionary pattern.
struct Pattern {
  std::vector<SpecInstr> Elems;

  /// True if no element can transfer control (such a pattern may be the
  /// first part of an opcode combination).
  bool allDataOps() const;

  /// True when the LAST element may transfer control and all earlier
  /// elements are data ops -- the invariant every pattern must satisfy.
  bool wellFormed() const;

  /// Matches a concrete instruction sequence starting at \p Seq.
  bool matches(const vm::Instr *Seq, size_t N) const;

  /// Packed operand byte count for any matching instance.
  unsigned operandBytes() const;

  /// Total encoded size of one instance (1 opcode byte + operands).
  unsigned instanceBytes() const { return 1 + operandBytes(); }

  /// Serialized dictionary-entry size in bytes.
  unsigned dictEntryBytes() const;

  /// Canonical byte key for hashing/deduplication.
  std::string key() const;

  void serialize(ByteWriter &W) const;
  /// Throws DecodeError on a corrupt dictionary entry.
  static Pattern deserialize(ByteReader &R);

  /// Builds the base (fully unspecified) pattern of \p Op, with default
  /// widths: registers Nib, immediates B4, labels/functions B2.
  static Pattern base(vm::VMOp Op);

  /// Human-readable form in the paper's notation, e.g.
  /// "<[ld.iw n0,*(sp)],[mov.i *,*]>".
  std::string str() const;
};

/// The base instruction set as patterns: basePatterns()[Op] is
/// Pattern::base(Op). Built once, on first use, and shared read-only by
/// every program and thread.
const std::vector<Pattern> &basePatterns();

/// Packs the unspecified operand values of \p P (matching \p Seq) into
/// bytes; nibble-width fields pack two per byte.
void packOperands(const Pattern &P, const vm::Instr *Seq, ByteWriter &W);

/// Unpacks operands and reconstructs the concrete instruction sequence.
/// Returns the number of bytes consumed. Throws DecodeError on
/// truncated operand bytes.
size_t unpackOperands(const Pattern &P, const uint8_t *Bytes, size_t N,
                      std::vector<vm::Instr> &Out);

} // namespace brisc
} // namespace ccomp

#endif // CCOMP_BRISC_PATTERN_H
