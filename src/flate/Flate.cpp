//===- flate/Flate.cpp - LZ77 + Huffman general compressor ---------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "flate/Flate.h"

#include "support/BitStream.h"
#include "support/ByteIO.h"
#include "support/Huffman.h"
#include "support/Support.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace ccomp;
using namespace ccomp::flate;

namespace {

constexpr unsigned WindowSize = 32768;
constexpr unsigned MinMatch = 3;
constexpr unsigned MaxMatch = 258;
constexpr unsigned ChunkSize = 1 << 16; // One block per 64 KiB of input.

constexpr unsigned NumLitLenSyms = 286; // 0..255 lit, 256 EOB, 257.. len.
constexpr unsigned NumDistSyms = 30;
constexpr unsigned EOB = 256;
constexpr unsigned MaxCodeLen = 14; // 15 is the zero-run escape marker.

// DEFLATE length code table: symbol 257+i covers [Base, Base+2^Extra).
struct LenCode {
  uint16_t Base;
  uint8_t Extra;
};
constexpr LenCode LenCodes[29] = {
    {3, 0},   {4, 0},   {5, 0},   {6, 0},   {7, 0},  {8, 0},  {9, 0},
    {10, 0},  {11, 1},  {13, 1},  {15, 1},  {17, 1}, {19, 2}, {23, 2},
    {27, 2},  {31, 2},  {35, 3},  {43, 3},  {51, 3}, {59, 3}, {67, 4},
    {83, 4},  {99, 4},  {115, 4}, {131, 5}, {163, 5},
    {195, 5}, {227, 5}, {258, 0}};

// DEFLATE distance code table.
struct DistCode {
  uint16_t Base;
  uint8_t Extra;
};
constexpr DistCode DistCodes[30] = {
    {1, 0},     {2, 0},     {3, 0},     {4, 0},     {5, 1},    {7, 1},
    {9, 2},     {13, 2},    {17, 3},    {25, 3},    {33, 4},   {49, 4},
    {65, 5},    {97, 5},    {129, 6},   {193, 6},   {257, 7},  {385, 7},
    {513, 8},   {769, 8},   {1025, 9},  {1537, 9},  {2049, 10},
    {3073, 10}, {4097, 11}, {6145, 11}, {8193, 12}, {12289, 12},
    {16385, 13}, {24577, 13}};

unsigned lengthToSym(unsigned Len) {
  assert(Len >= MinMatch && Len <= MaxMatch);
  // Linear scan over 29 entries is fine for this project's sizes.
  for (unsigned I = 29; I-- > 0;)
    if (Len >= LenCodes[I].Base)
      return 257 + I;
  ccomp_unreachable("bad match length");
}

unsigned distToSym(unsigned Dist) {
  assert(Dist >= 1 && Dist <= WindowSize);
  for (unsigned I = 30; I-- > 0;)
    if (Dist >= DistCodes[I].Base)
      return I;
  ccomp_unreachable("bad match distance");
}

/// One LZ77 token: either a literal byte or a (length, distance) match.
struct Token {
  uint16_t Length = 0; // 0 => literal.
  uint16_t Dist = 0;
  uint8_t Lit = 0;
};

/// Hash-chain LZ77 match finder over the whole input (window-limited).
class MatchFinder {
public:
  MatchFinder(const uint8_t *Data, size_t N, const Options &Opts)
      : Data(Data), N(N), Opts(Opts) {
    Head.assign(HashSize, -1);
    Prev.assign(N, -1);
  }

  /// Finds the longest match at \p Pos; returns length (0 if < MinMatch)
  /// and sets \p Dist.
  unsigned findMatch(size_t Pos, unsigned &Dist) const {
    if (Pos + MinMatch > N)
      return 0;
    unsigned BestLen = MinMatch - 1, BestDist = 0;
    unsigned MaxLen =
        static_cast<unsigned>(std::min<size_t>(MaxMatch, N - Pos));
    int32_t Cand = Head[hashAt(Pos)];
    unsigned Chain = Opts.MaxChainLength;
    while (Cand >= 0 && Chain-- > 0) {
      size_t C = static_cast<size_t>(Cand);
      if (Pos - C > WindowSize)
        break;
      // Quick reject on the byte just past the current best.
      if (BestLen < MaxLen && Data[C + BestLen] == Data[Pos + BestLen]) {
        unsigned Len = 0;
        while (Len < MaxLen && Data[C + Len] == Data[Pos + Len])
          ++Len;
        if (Len > BestLen) {
          BestLen = Len;
          BestDist = static_cast<unsigned>(Pos - C);
          if (Len >= Opts.GoodEnoughLength)
            break;
        }
      }
      Cand = Prev[C];
    }
    if (BestLen < MinMatch)
      return 0;
    Dist = BestDist;
    return BestLen;
  }

  /// Inserts position \p Pos into the hash chains.
  void insert(size_t Pos) {
    if (Pos + MinMatch > N)
      return;
    unsigned H = hashAt(Pos);
    Prev[Pos] = Head[H];
    Head[H] = static_cast<int32_t>(Pos);
  }

private:
  static constexpr unsigned HashBits = 15;
  static constexpr unsigned HashSize = 1u << HashBits;

  unsigned hashAt(size_t Pos) const {
    uint32_t V = Data[Pos] | (Data[Pos + 1] << 8) | (Data[Pos + 2] << 16);
    return (V * 2654435761u) >> (32 - HashBits);
  }

  const uint8_t *Data;
  size_t N;
  Options Opts;
  std::vector<int32_t> Head;
  std::vector<int32_t> Prev;
};

/// Runs greedy-with-lazy LZ77 over Input[Begin, End) and appends tokens.
void tokenize(const uint8_t *Data, size_t Begin, size_t End,
              MatchFinder &MF, const Options &Opts,
              std::vector<Token> &Out) {
  size_t Pos = Begin;
  while (Pos < End) {
    unsigned Dist = 0;
    unsigned Len = MF.findMatch(Pos, Dist);
    // Matches must not run past this block's end: the next block encodes
    // those bytes itself.
    if (Len > End - Pos)
      Len = static_cast<unsigned>(End - Pos);
    if (Len < MinMatch)
      Len = 0;
    if (Len >= MinMatch && Opts.Lazy && Pos + 1 < End) {
      // Lazy evaluation: if the next position has a strictly longer match,
      // emit a literal here instead.
      MF.insert(Pos);
      unsigned Dist2 = 0;
      unsigned Len2 = MF.findMatch(Pos + 1, Dist2);
      if (Len2 > Len) {
        Out.push_back({0, 0, Data[Pos]});
        ++Pos;
        continue;
      }
      // Keep the current match; positions inside it still get indexed.
      Out.push_back({static_cast<uint16_t>(Len),
                     static_cast<uint16_t>(Dist), 0});
      for (size_t I = Pos + 1; I != Pos + Len; ++I)
        MF.insert(I);
      Pos += Len;
      continue;
    }
    if (Len >= MinMatch) {
      Out.push_back({static_cast<uint16_t>(Len),
                     static_cast<uint16_t>(Dist), 0});
      for (size_t I = Pos; I != Pos + Len; ++I)
        MF.insert(I);
      Pos += Len;
      continue;
    }
    Out.push_back({0, 0, Data[Pos]});
    MF.insert(Pos);
    ++Pos;
  }
}

/// Writes a code-length array with zero-run escapes: each nonzero length is
/// 4 bits (1..14); 15 escapes a zero run whose length-1 follows in 6 bits.
void writeLengths(BitWriter &BW, const std::vector<uint8_t> &Lens,
                  unsigned Count) {
  for (unsigned I = 0; I < Count;) {
    if (Lens[I] != 0) {
      BW.writeBits(Lens[I], 4);
      ++I;
      continue;
    }
    unsigned Run = 0;
    while (I + Run < Count && Lens[I + Run] == 0 && Run < 64)
      ++Run;
    BW.writeBits(15, 4);
    BW.writeBits(Run - 1, 6);
    I += Run;
  }
}

std::vector<uint8_t> readLengths(BitReader &BR, unsigned Count) {
  std::vector<uint8_t> Lens(Count, 0);
  unsigned I = 0;
  while (I < Count) {
    unsigned V = BR.readBits(4);
    if (V == 15) {
      unsigned Run = BR.readBits(6) + 1;
      if (I + Run > Count)
        decodeFail("flate: zero run past end of length table");
      I += Run;
      continue;
    }
    Lens[I++] = static_cast<uint8_t>(V);
  }
  return Lens;
}

/// Encodes one block of tokens as a dynamic-Huffman block body.
void writeDynamicBlock(BitWriter &BW, const std::vector<Token> &Toks) {
  std::vector<uint64_t> LitFreq(NumLitLenSyms, 0), DistFreq(NumDistSyms, 0);
  for (const Token &T : Toks) {
    if (T.Length == 0) {
      ++LitFreq[T.Lit];
    } else {
      ++LitFreq[lengthToSym(T.Length)];
      ++DistFreq[distToSym(T.Dist)];
    }
  }
  ++LitFreq[EOB];

  HuffmanCode LitHC(buildHuffmanLengths(LitFreq, MaxCodeLen),
                    HuffmanCode::Use::Encode);
  HuffmanCode DistHC(buildHuffmanLengths(DistFreq, MaxCodeLen),
                     HuffmanCode::Use::Encode);

  writeLengths(BW, LitHC.lengths(), NumLitLenSyms);
  writeLengths(BW, DistHC.lengths(), NumDistSyms);

  for (const Token &T : Toks) {
    if (T.Length == 0) {
      LitHC.encode(BW, T.Lit);
      continue;
    }
    unsigned LSym = lengthToSym(T.Length);
    LitHC.encode(BW, LSym);
    const LenCode &LC = LenCodes[LSym - 257];
    if (LC.Extra)
      BW.writeBits(T.Length - LC.Base, LC.Extra);
    unsigned DSym = distToSym(T.Dist);
    DistHC.encode(BW, DSym);
    const DistCode &DC = DistCodes[DSym];
    if (DC.Extra)
      BW.writeBits(T.Dist - DC.Base, DC.Extra);
  }
  LitHC.encode(BW, EOB);
}

} // namespace

std::vector<uint8_t> flate::compress(ByteSpan Input, const Options &Opts) {
  ByteWriter Frame;
  Frame.writeVarU(Input.size());

  if (Input.empty())
    return Frame.take();

  MatchFinder MF(Input.data(), Input.size(), Opts);
  BitWriter BW;
  size_t Pos = 0;
  while (Pos < Input.size()) {
    size_t End = std::min(Input.size(), Pos + ChunkSize);
    bool Final = End == Input.size();

    std::vector<Token> Toks;
    tokenize(Input.data(), Pos, End, MF, Opts, Toks);

    // Try a dynamic block; fall back to stored if it would be larger.
    BitWriter Trial;
    writeDynamicBlock(Trial, Toks);
    size_t DynBits = Trial.bitCount();
    size_t StoredBits = 16 + (End - Pos) * 8;

    BW.writeBits(Final ? 1 : 0, 1);
    if (DynBits <= StoredBits) {
      BW.writeBits(1, 2); // Dynamic.
      writeDynamicBlock(BW, Toks);
    } else {
      BW.writeBits(0, 2); // Stored.
      BW.writeBits(static_cast<uint32_t>(End - Pos), 17);
      for (size_t I = Pos; I != End; ++I)
        BW.writeBits(Input[I], 8);
    }
    Pos = End;
  }
  std::vector<uint8_t> Body = BW.finish();
  Frame.writeBytes(Body);
  return Frame.take();
}

void flate::compressTo(ByteSpan Input, Sink &Out, const Options &Opts) {
  Out.write(compress(Input, Opts));
}

namespace {

std::vector<uint8_t> decompressOrThrow(ByteSpan Input) {
  ByteReader Frame(Input);
  size_t OrigSize = Frame.readVarU();
  std::vector<uint8_t> Out;
  // The size prefix is untrusted: a corrupt frame can claim multi-GB
  // output. A literal needs >= 1 bit and a match emits <= MaxMatch bytes
  // from a handful of bits, so genuine output is bounded by a small
  // multiple of the remaining input; clamp the up-front reservation to
  // that (the vector still grows on demand, reserve is an optimization).
  size_t MaxPlausible = Frame.remaining() * (8 * MaxMatch) + 64;
  Out.reserve(std::min(OrigSize, MaxPlausible));
  if (OrigSize == 0) {
    if (!Frame.atEnd())
      decodeFail("flate: trailing bytes after empty frame");
    return Out;
  }

  BitReader BR(Frame.rest());
  bool Final = false;
  while (!Final) {
    Final = BR.readBit() != 0;
    unsigned Type = BR.readBits(2);
    if (Type == 0) {
      unsigned Len = BR.readBits(17);
      if (Out.size() + Len > OrigSize)
        decodeFail("flate: output exceeds declared size");
      size_t At = Out.size();
      Out.resize(At + Len);
      BR.readBytes(Out.data() + At, Len);
      continue;
    }
    if (Type != 1)
      decodeFail("flate: unknown block type");
    std::vector<uint8_t> LitLens = readLengths(BR, NumLitLenSyms);
    std::vector<uint8_t> DistLens = readLengths(BR, NumDistSyms);
    if (!HuffmanCode::isValidLengthSet(LitLens) ||
        !HuffmanCode::isValidLengthSet(DistLens))
      decodeFail("flate: corrupt code length table");
    HuffmanCode LitHC(std::move(LitLens), HuffmanCode::Use::Decode);
    HuffmanCode DistHC(std::move(DistLens), HuffmanCode::Use::Decode);
    for (;;) {
      unsigned Sym = LitHC.decode(BR);
      if (Sym == EOB)
        break;
      if (Sym >= NumLitLenSyms)
        decodeFail("flate: literal/length symbol out of range");
      if (Sym < 256) {
        if (Out.size() >= OrigSize)
          decodeFail("flate: output exceeds declared size");
        Out.push_back(static_cast<uint8_t>(Sym));
        continue;
      }
      const LenCode &LC = LenCodes[Sym - 257];
      unsigned Len = LC.Base + (LC.Extra ? BR.readBits(LC.Extra) : 0);
      unsigned DSym = DistHC.decode(BR);
      const DistCode &DC = DistCodes[DSym];
      unsigned Dist = DC.Base + (DC.Extra ? BR.readBits(DC.Extra) : 0);
      if (Dist > Out.size())
        decodeFail("flate: match distance before start of output");
      if (Out.size() + Len > OrigSize)
        decodeFail("flate: output exceeds declared size");
      size_t At = Out.size();
      Out.resize(At + Len);
      uint8_t *Dst = Out.data() + At;
      const uint8_t *Src = Dst - Dist;
      if (Dist >= Len) {
        std::memcpy(Dst, Src, Len);
      } else if (Dist == 1) {
        std::memset(Dst, *Src, Len);
      } else {
        // Overlapping: the match repeats its last Dist bytes; copy the
        // run forward so each byte reads one already written.
        for (unsigned I = 0; I != Len; ++I)
          Dst[I] = Src[I];
      }
    }
  }
  if (Out.size() != OrigSize)
    decodeFail("flate: decompressed size mismatch");
  if (!BR.nearEnd())
    decodeFail("flate: trailing bytes after final block");
  return Out;
}

} // namespace

Result<std::vector<uint8_t>> flate::tryDecompress(ByteSpan Input) {
  return tryDecode([&] { return decompressOrThrow(Input); });
}

std::vector<uint8_t> flate::decompress(ByteSpan Input) {
  Result<std::vector<uint8_t>> R = tryDecompress(Input);
  if (!R.ok())
    reportFatal(R.error().message());
  return R.take();
}
