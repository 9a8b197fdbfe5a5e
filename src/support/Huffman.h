//===- support/Huffman.h - Canonical Huffman coding ------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical Huffman coding with a configurable maximum code length.
/// The paper's wire format Huffman-codes MTF indices (step 4 of the
/// pipeline in section 3) and the flate compressor uses the same coder
/// for its literal/length and distance alphabets.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_SUPPORT_HUFFMAN_H
#define CCOMP_SUPPORT_HUFFMAN_H

#include "support/BitStream.h"

#include <array>
#include <cstdint>
#include <vector>

namespace ccomp {

/// Computes length-limited canonical Huffman code lengths for \p Freqs.
///
/// Symbols with zero frequency get length 0 (no code). If only one symbol
/// has nonzero frequency it is assigned length 1 so the stream remains
/// decodable. Lengths never exceed \p MaxLen (overlong codes are adjusted
/// with the standard zlib-style rebalancing).
std::vector<uint8_t> buildHuffmanLengths(const std::vector<uint64_t> &Freqs,
                                         unsigned MaxLen = 15);

/// A canonical Huffman code built from code lengths, usable for both
/// encoding and decoding. Codes are assigned in the canonical order:
/// shorter codes first, ties broken by symbol index.
///
/// decode() resolves every code of up to TableBits bits with one lookup
/// in a table indexed by the next TableBits stream bits, and walks the
/// canonical code bit by bit only for longer codes, invalid codes, and a
/// stream that ends inside a code.
class HuffmanCode {
public:
  /// What the code is built for. An encoder skips the decode table; a
  /// decoder skips the per-symbol codes.
  enum class Use : uint8_t { EncodeAndDecode, Encode, Decode };

  /// Width of the decode table in bits: codes this long or shorter
  /// decode with one lookup.
  static constexpr unsigned MaxTableBits = 10;

  /// Builds the canonical code. Invalid (oversubscribed) length sets are a
  /// fatal error for lengths produced internally; use isValidLengthSet()
  /// first when the lengths come from an untrusted container.
  explicit HuffmanCode(std::vector<uint8_t> Lengths,
                       Use U = Use::EncodeAndDecode);

  /// Returns true if \p Lengths forms a decodable (not oversubscribed)
  /// canonical code.
  static bool isValidLengthSet(const std::vector<uint8_t> &Lengths);

  /// Writes the code for \p Sym to \p BW. \p Sym must have a code;
  /// encoding a codeless symbol, or with a Use::Decode code, is a fatal
  /// error in every build type.
  void encode(BitWriter &BW, unsigned Sym) const;

  /// Reads one symbol from \p BR. Throws DecodeError on a bit pattern
  /// that is not a valid code (corrupt stream) or a stream that ends
  /// inside a code. A Use::Encode code decodes too, bit by bit.
  unsigned decode(BitReader &BR) const {
    if (TableBits) {
      uint32_t E = Table[BR.peekBits(TableBits)];
      unsigned L = E & 15;
      if (L && L <= BR.bufferedBits()) {
        BR.skipBits(L);
        return E >> 4;
      }
    }
    return decodeSlow(BR);
  }

  unsigned numSymbols() const { return Lengths.size(); }
  uint8_t lengthOf(unsigned Sym) const { return Lengths[Sym]; }
  const std::vector<uint8_t> &lengths() const { return Lengths; }

  /// Total encoded bit count if symbol \p Sym occurs Freqs[Sym] times.
  uint64_t costBits(const std::vector<uint64_t> &Freqs) const;

private:
  unsigned decodeSlow(BitReader &BR) const;

  static constexpr unsigned MaxCodeLen = 31;

  std::vector<uint8_t> Lengths;   // Per-symbol code length, 0 = absent.
  std::vector<uint32_t> Codes;    // Per-symbol canonical code (MSB-first).
  // Canonical decode tables indexed by length 1..MaxLen.
  unsigned MaxLen = 0;
  std::array<uint32_t, MaxCodeLen + 1> FirstCode{};  // First code per length.
  std::array<uint32_t, MaxCodeLen + 1> FirstIndex{}; // Its SortedSyms index.
  std::array<uint32_t, MaxCodeLen + 1> CountOfLen{}; // Codes of each length.
  std::vector<uint32_t> SortedSyms; // Symbols sorted by (length, index).
  // Decode table over the next TableBits stream bits (LSB-first): entry
  // Sym << 4 | Len for a code of Len <= TableBits bits, 0 where no such
  // code starts. TableBits == 0 means no table.
  unsigned TableBits = 0;
  std::vector<uint32_t> Table;
};

} // namespace ccomp

#endif // CCOMP_SUPPORT_HUFFMAN_H
