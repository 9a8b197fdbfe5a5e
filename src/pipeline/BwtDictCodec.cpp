//===- pipeline/BwtDictCodec.cpp - BWT + MTF + Huffman byte codec ---------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bwt-dict codec: Burrows-Wheeler transform over the payload bytes,
/// move-to-front over the last column (sorting clusters equal contexts,
/// so MTF indices skew tiny), then canonical Huffman over the MTF
/// indices with raw 8-bit literals after each "new symbol" token. A Raw
/// codec, so it serves as a standalone byte chain or a back stage after
/// any instruction-recoding front (e.g. "brisc-ctx+bwt-dict").
///
/// Frame layout:
///   'B' 'D' version(1)
///   varU  OrigLen
///   -- nothing further when OrigLen == 0 --
///   varU  Primary            (< OrigLen)
///   varU  NumSyms            (Huffman alphabet over MTF indices, <= 257)
///   nibble-packed code lengths, (NumSyms+1)/2 bytes
///   varU  BitBytes
///   BitBytes bytes of LSB-first Huffman codes (+ 8-bit literals)
///
//===----------------------------------------------------------------------===//

#include "pipeline/Codec.h"
#include "support/BWT.h"
#include "support/ByteIO.h"
#include "support/Huffman.h"
#include "support/MTF.h"
#include "support/Support.h"

#include <algorithm>
#include <memory>

using namespace ccomp;
using namespace ccomp::pipeline;

namespace {

constexpr uint8_t FrameMagic0 = 'B';
constexpr uint8_t FrameMagic1 = 'D';
constexpr uint8_t FrameVersion = 1;

/// MTF over bytes: the table never exceeds 256 entries, so indices stay
/// in [0, 256] and the Huffman alphabet in [1, 257].
constexpr size_t ByteTableCap = 256;
constexpr uint64_t MaxNumSyms = ByteTableCap + 1;

std::vector<uint8_t> encodeBwtDict(ByteSpan Payload) {
  BWTResult B = bwtForward(Payload);

  ByteWriter W;
  W.writeU8(FrameMagic0);
  W.writeU8(FrameMagic1);
  W.writeU8(FrameVersion);
  W.writeVarU(Payload.size());
  if (Payload.empty())
    return W.take();

  // Pass 1: MTF the last column and collect index frequencies.
  MTFEncoder Freq1;
  std::vector<MTFToken> Tokens;
  Tokens.reserve(B.LastCol.size());
  uint32_t MaxIndex = 0;
  for (uint8_t C : B.LastCol) {
    MTFToken T = Freq1.encode(C);
    MaxIndex = std::max(MaxIndex, T.Index);
    Tokens.push_back(T);
  }
  std::vector<uint64_t> Freqs(MaxIndex + 1, 0);
  for (const MTFToken &T : Tokens)
    ++Freqs[T.Index];

  std::vector<uint8_t> Lens = buildHuffmanLengths(Freqs, 15);
  HuffmanCode Code(Lens, HuffmanCode::Use::Encode);

  W.writeVarU(B.Primary);
  W.writeVarU(Lens.size());
  for (size_t I = 0; I < Lens.size(); I += 2) {
    uint8_t Packed = Lens[I];
    if (I + 1 < Lens.size())
      Packed = static_cast<uint8_t>(Packed | (Lens[I + 1] << 4));
    W.writeU8(Packed);
  }

  // Pass 2: emit the token stream.
  BitWriter BW;
  for (const MTFToken &T : Tokens) {
    Code.encode(BW, T.Index);
    if (T.Index == 0)
      BW.writeBits(static_cast<uint32_t>(T.NewSymbol), 8);
  }
  std::vector<uint8_t> Bits = BW.finish();
  W.writeVarU(Bits.size());
  W.writeBytes(Bits);
  return W.take();
}

std::vector<uint8_t> decodeBwtDictOrThrow(ByteSpan Frame) {
  ByteReader R(Frame);
  if (R.readU8() != FrameMagic0 || R.readU8() != FrameMagic1)
    decodeFail("bwt-dict: bad magic");
  if (R.readU8() != FrameVersion)
    decodeFail("bwt-dict: unsupported version");
  uint64_t OrigLen = R.readVarU();
  if (OrigLen == 0) {
    if (!R.atEnd())
      decodeFail("bwt-dict: trailing bytes after an empty transform");
    return {};
  }
  uint64_t Primary = R.readVarU();
  if (Primary >= OrigLen)
    decodeFail("bwt-dict: primary index out of range");
  uint64_t NumSyms = R.readVarU();
  if (NumSyms == 0 || NumSyms > MaxNumSyms)
    decodeFail("bwt-dict: Huffman alphabet size out of range");
  std::vector<uint8_t> Packed = R.readBytes((NumSyms + 1) / 2);
  std::vector<uint8_t> Lens(NumSyms);
  for (size_t I = 0; I != Lens.size(); ++I)
    Lens[I] = static_cast<uint8_t>(I % 2 ? Packed[I / 2] >> 4
                                         : Packed[I / 2] & 15);
  if (!HuffmanCode::isValidLengthSet(Lens))
    decodeFail("bwt-dict: oversubscribed Huffman lengths");
  HuffmanCode Code(std::move(Lens), HuffmanCode::Use::Decode);

  uint64_t BitBytes = R.readVarU();
  std::vector<uint8_t> Bits = R.readBytes(BitBytes);
  if (!R.atEnd())
    decodeFail("bwt-dict: trailing bytes");
  // Each symbol consumes at least one bit: rejects inflated lengths
  // before the decode loop spends time (and memory) on them.
  if (OrigLen > Bits.size() * 8)
    decodeFail("bwt-dict: inflated length");

  BitReader BR(Bits);
  MTFDecoder Dec(ByteTableCap);
  std::vector<uint8_t> LastCol;
  // Reserve within the bit budget, not the raw claimed length: the
  // decode loop throws on bit exhaustion before a lie gets that far.
  LastCol.reserve(std::min<uint64_t>(OrigLen, Bits.size() * 8));
  for (uint64_t I = 0; I != OrigLen; ++I) {
    unsigned Sym = Code.decode(BR);
    uint64_t Val = Sym == 0 ? Dec.decode(0, BR.readBits(8))
                            : Dec.decode(static_cast<uint32_t>(Sym), 0);
    LastCol.push_back(static_cast<uint8_t>(Val));
  }
  if (!BR.nearEnd())
    decodeFail("bwt-dict: trailing bits");
  return bwtInverse(LastCol, static_cast<uint32_t>(Primary));
}

class BwtDictCodec final : public Codec {
public:
  const char *name() const override { return "bwt-dict"; }
  const char *description() const override {
    return "Burrows-Wheeler + MTF + canonical Huffman over arbitrary "
           "bytes (block-sorting dictionary coder)";
  }
  PayloadKind payloadKind() const override { return PayloadKind::Raw; }

protected:
  std::vector<uint8_t> compressImpl(ByteSpan Payload) const override {
    return encodeBwtDict(Payload);
  }
  Result<std::vector<uint8_t>> tryDecompressImpl(ByteSpan F) const override {
    return tryDecode([&] { return decodeBwtDictOrThrow(F); });
  }
};

} // namespace

namespace ccomp {
namespace pipeline {

std::unique_ptr<Codec> createBwtDictCodec() {
  return std::make_unique<BwtDictCodec>();
}

} // namespace pipeline
} // namespace ccomp
