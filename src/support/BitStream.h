//===- support/BitStream.h - LSB-first bit reader/writer -------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LSB-first bit-level I/O, shared by the Huffman coder and the flate
/// (DEFLATE-class) compressor. The bit order matches DEFLATE: bits are
/// packed into each byte starting at the least significant position.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_SUPPORT_BITSTREAM_H
#define CCOMP_SUPPORT_BITSTREAM_H

#include "support/Error.h"
#include "support/Span.h"
#include "support/Support.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ccomp {

/// Append-only LSB-first bit sink.
class BitWriter {
public:
  /// Writes the low \p NBits bits of \p V, least significant bit first.
  /// NBits > 32 is a caller bug; it is diagnosed in every build type
  /// (an assert alone would silently truncate in NDEBUG builds).
  void writeBits(uint32_t V, unsigned NBits) {
    if (NBits > 32)
      reportFatal("BitWriter: bit count out of range");
    Acc |= static_cast<uint64_t>(V & bitMask(NBits)) << NAcc;
    NAcc += NBits;
    while (NAcc >= 8) {
      Bytes.push_back(static_cast<uint8_t>(Acc));
      Acc >>= 8;
      NAcc -= 8;
    }
  }

  /// Writes a Huffman code, which by canonical-code convention is stored
  /// MSB-first in \p Code; this reverses it into the LSB-first stream.
  void writeCodeMSB(uint32_t Code, unsigned NBits) {
    uint32_t Rev = 0;
    for (unsigned I = 0; I != NBits; ++I)
      Rev |= ((Code >> I) & 1) << (NBits - 1 - I);
    writeBits(Rev, NBits);
  }

  /// Pads to a byte boundary with zero bits and returns the buffer.
  std::vector<uint8_t> finish() {
    if (NAcc > 0) {
      Bytes.push_back(static_cast<uint8_t>(Acc));
      Acc = 0;
      NAcc = 0;
    }
    return std::move(Bytes);
  }

  /// Number of bits written so far.
  size_t bitCount() const { return Bytes.size() * 8 + NAcc; }

private:
  static uint32_t bitMask(unsigned NBits) {
    return NBits >= 32 ? 0xFFFFFFFFu : ((1u << NBits) - 1u);
  }

  std::vector<uint8_t> Bytes;
  uint64_t Acc = 0;
  unsigned NAcc = 0;
};

/// Sequential LSB-first bit source. Reading past the end throws
/// DecodeError (truncated stream); decode entry points catch at the
/// frame boundary and return a typed error.
///
/// Bytes are buffered ahead into a 64-bit accumulator, so peekBits() can
/// look at the next table-width bits in one step (the Huffman decoder's
/// fast path) and a read is a shift and a mask.
class BitReader {
public:
  /*implicit*/ BitReader(ByteSpan S) : Data(S.data()), NBytes(S.size()) {}
  BitReader(const uint8_t *Data, size_t N) : Data(Data), NBytes(N) {}
  explicit BitReader(const std::vector<uint8_t> &V)
      : Data(V.data()), NBytes(V.size()) {}

  uint32_t readBits(unsigned NBits) {
    if (NBits > 32)
      reportFatal("BitReader: bit count out of range"); // Caller bug.
    if (NAcc < NBits) {
      refill();
      if (NAcc < NBits)
        decodeFail("BitReader: read past end of stream");
    }
    uint32_t V = static_cast<uint32_t>(Acc & lowMask(NBits));
    Acc >>= NBits;
    NAcc -= NBits;
    return V;
  }

  /// Reads a single bit.
  uint32_t readBit() { return readBits(1); }

  /// Returns the next \p NBits (at most 32) bits without consuming them.
  /// Bits past the end of the stream read as zero; bufferedBits() says
  /// how many of the peeked bits are real.
  uint32_t peekBits(unsigned NBits) {
    if (NBits > 32)
      reportFatal("BitReader: bit count out of range"); // Caller bug.
    if (NAcc < NBits)
      refill();
    return static_cast<uint32_t>(Acc & lowMask(NBits));
  }

  /// Bits buffered by the last peekBits() (or read), all of them real.
  unsigned bufferedBits() const { return NAcc; }

  /// Consumes \p NBits bits a peekBits() call has buffered; skipping
  /// more than bufferedBits() is a caller bug.
  void skipBits(unsigned NBits) {
    if (NBits > NAcc)
      reportFatal("BitReader: skip past the buffered bits"); // Caller bug.
    Acc >>= NBits;
    NAcc -= NBits;
  }

  /// Reads \p N whole bytes (8 bits each, at any bit alignment) into
  /// \p Out; a stream holding fewer than 8 * N more bits throws
  /// DecodeError before anything is written.
  void readBytes(uint8_t *Out, size_t N) {
    if (N > bitsLeft() / 8)
      decodeFail("BitReader: read past end of stream");
    size_t I = 0;
    while (I != N && NAcc >= 8) { // Drain the accumulator.
      Out[I++] = static_cast<uint8_t>(Acc);
      Acc >>= 8;
      NAcc -= 8;
    }
    if (I == N)
      return;
    // The accumulator holds NAcc < 8 bits: the rest of the run starts that
    // many bits into Data[Pos], so each output byte straddles two input
    // bytes (a plain copy when byte-aligned).
    unsigned Shift = NAcc;
    if (Shift == 0) {
      std::memcpy(Out + I, Data + Pos, N - I);
      Pos += N - I;
      Acc = 0;
      return;
    }
    uint32_t Low = static_cast<uint32_t>(Acc & lowMask(Shift));
    for (; I != N; ++I) {
      uint32_t B = Data[Pos++];
      Out[I] = static_cast<uint8_t>(Low | (B << Shift));
      Low = B >> (8 - Shift);
    }
    Acc = Low;
  }

  /// Unread bits, buffered or not.
  size_t bitsLeft() const { return (NBytes - Pos) * 8 + NAcc; }

  /// True once fewer than 8 bits remain (the tail padding).
  bool nearEnd() const { return bitsLeft() < 8; }

  size_t bitPos() const { return Pos * 8 - NAcc; }

private:
  static uint64_t lowMask(unsigned NBits) { return (1ull << NBits) - 1; }

  /// Buffers whole bytes until the accumulator holds at least 56 bits or
  /// the input runs out. Called only with NAcc < 32.
  void refill() {
    if (NBytes - Pos >= 8) {
      // One 8-byte load. Its bytes past the last whole one land above
      // NAcc; they are the stream's own next bits, which the next refill
      // ORs in again unchanged.
      Acc |= load64LE(Data + Pos) << NAcc;
      unsigned Take = (63 - NAcc) >> 3;
      Pos += Take;
      NAcc += Take * 8;
      return;
    }
    while (NAcc <= 56 && Pos < NBytes) {
      Acc |= static_cast<uint64_t>(Data[Pos++]) << NAcc;
      NAcc += 8;
    }
  }

  static uint64_t load64LE(const uint8_t *P) {
    uint64_t V = 0;
    std::memcpy(&V, P, 8);
    if constexpr (std::endian::native == std::endian::big)
      V = __builtin_bswap64(V);
    return V;
  }

  const uint8_t *Data;
  size_t NBytes;
  size_t Pos = 0;
  // Bits above NAcc are zero or the stream's next bits (see refill()).
  uint64_t Acc = 0;
  unsigned NAcc = 0;
};

} // namespace ccomp

#endif // CCOMP_SUPPORT_BITSTREAM_H
