//===- support/Huffman.cpp - Canonical Huffman coding --------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Huffman.h"
#include "support/Error.h"
#include "support/Support.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>

using namespace ccomp;

std::vector<uint8_t>
ccomp::buildHuffmanLengths(const std::vector<uint64_t> &Freqs,
                           unsigned MaxLen) {
  const size_t N = Freqs.size();
  std::vector<uint8_t> Lengths(N, 0);

  // Collect live symbols.
  std::vector<unsigned> Live;
  for (unsigned I = 0; I != N; ++I)
    if (Freqs[I] != 0)
      Live.push_back(I);
  if (Live.empty())
    return Lengths;
  if (Live.size() == 1) {
    Lengths[Live[0]] = 1;
    return Lengths;
  }

  // Standard heap-based Huffman over internal nodes. Node indices < N are
  // leaves; >= N are internal.
  struct HeapEntry {
    uint64_t Freq;
    uint32_t Node;
    bool operator>(const HeapEntry &O) const {
      if (Freq != O.Freq)
        return Freq > O.Freq;
      return Node > O.Node; // Deterministic tie-break.
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      Heap;
  std::vector<uint32_t> Parent(N + Live.size(), 0);
  for (unsigned S : Live)
    Heap.push({Freqs[S], S});
  uint32_t Next = N;
  while (Heap.size() > 1) {
    HeapEntry A = Heap.top();
    Heap.pop();
    HeapEntry B = Heap.top();
    Heap.pop();
    Parent[A.Node] = Next;
    Parent[B.Node] = Next;
    Heap.push({A.Freq + B.Freq, Next});
    ++Next;
  }
  uint32_t Root = Heap.top().Node;

  // Depth of each leaf = code length.
  std::vector<uint8_t> Depth(Next, 0);
  for (uint32_t I = Next; I-- > 0;) {
    if (I == Root)
      continue;
    if (I >= N || Freqs[I] != 0) {
      unsigned D = Depth[Parent[I]] + 1;
      Depth[I] = static_cast<uint8_t>(std::min<unsigned>(D, 255));
    }
  }
  for (unsigned S : Live)
    Lengths[S] = Depth[S];

  // Length-limit: clamp overlong codes to MaxLen, then restore the Kraft
  // equality by lengthening the cheapest short codes (zlib-style repair).
  bool Over = false;
  for (unsigned S : Live)
    if (Lengths[S] > MaxLen) {
      Lengths[S] = static_cast<uint8_t>(MaxLen);
      Over = true;
    }
  if (Over) {
    // Kraft sum in units of 2^-MaxLen.
    auto kraft = [&]() {
      uint64_t Sum = 0;
      for (unsigned S : Live)
        Sum += 1ull << (MaxLen - Lengths[S]);
      return Sum;
    };
    uint64_t Limit = 1ull << MaxLen;
    // While oversubscribed, lengthen a code that is currently shorter than
    // MaxLen, preferring the rarest symbol (costs the fewest output bits).
    while (kraft() > Limit) {
      unsigned Best = ~0u;
      for (unsigned S : Live)
        if (Lengths[S] < MaxLen &&
            (Best == ~0u || Freqs[S] < Freqs[Best]))
          Best = S;
      if (Best == ~0u)
        reportFatal("Huffman length limiting failed");
      ++Lengths[Best];
    }
    // If undersubscribed, shorten the most frequent MaxLen code; purely an
    // optimization, decodability does not require Kraft equality.
    for (;;) {
      uint64_t Sum = kraft();
      if (Sum >= Limit)
        break;
      unsigned Best = ~0u;
      for (unsigned S : Live) {
        if (Lengths[S] <= 1)
          continue;
        uint64_t Gain = 1ull << (MaxLen - Lengths[S]);
        if (Sum + Gain <= Limit && (Best == ~0u || Freqs[S] > Freqs[Best]))
          Best = S;
      }
      if (Best == ~0u)
        break;
      --Lengths[Best];
    }
  }
  return Lengths;
}

bool HuffmanCode::isValidLengthSet(const std::vector<uint8_t> &Lengths) {
  unsigned Max = 0;
  for (uint8_t L : Lengths)
    Max = std::max<unsigned>(Max, L);
  if (Max == 0 || Max > 31)
    return Max == 0; // Empty alphabet is trivially fine.
  uint64_t Sum = 0;
  for (uint8_t L : Lengths)
    if (L)
      Sum += 1ull << (Max - L);
  return Sum <= (1ull << Max);
}

HuffmanCode::HuffmanCode(std::vector<uint8_t> Lens, Use U)
    : Lengths(std::move(Lens)) {
  for (uint8_t L : Lengths) {
    if (L > MaxCodeLen)
      reportFatal("HuffmanCode: code length out of range");
    ++CountOfLen[L];
  }
  CountOfLen[0] = 0; // Absent symbols.
  for (unsigned L = 1; L <= MaxCodeLen; ++L)
    if (CountOfLen[L])
      MaxLen = L;

  // Canonical first-code per length.
  uint32_t Code = 0, Index = 0;
  for (unsigned L = 1; L <= MaxLen; ++L) {
    Code = (Code + (L > 1 ? CountOfLen[L - 1] : 0)) << 1;
    FirstCode[L] = Code;
    FirstIndex[L] = Index;
    Index += CountOfLen[L];
    if (FirstCode[L] + CountOfLen[L] > (1u << L))
      reportFatal("HuffmanCode: oversubscribed code lengths");
  }

  // SortedSyms[FirstIndex[L] + k] = k-th symbol of length L, whose code
  // is FirstCode[L] + k.
  SortedSyms.assign(Index, 0);
  std::array<uint32_t, MaxCodeLen + 1> Fill = FirstIndex;
  for (unsigned S = 0; S != Lengths.size(); ++S)
    if (unsigned L = Lengths[S])
      SortedSyms[Fill[L]++] = S;

  if (U != Use::Decode) {
    Codes.assign(Lengths.size(), 0);
    for (unsigned L = 1; L <= MaxLen; ++L)
      for (uint32_t K = 0; K != CountOfLen[L]; ++K)
        Codes[SortedSyms[FirstIndex[L] + K]] = FirstCode[L] + K;
  }
  if (U == Use::Encode || MaxLen == 0)
    return;

  // Fill the decode table in canonical order, carrying the current code
  // bit-reversed (the stream's order) and incrementing it in that form,
  // so construction is O(2^TableBits + symbols). A code of L bits owns
  // every entry whose low L bits equal it.
  TableBits = std::min(MaxLen, MaxTableBits);
  const uint32_t Size = 1u << TableBits;
  Table.assign(Size, 0);
  uint32_t Rev = 0;
  for (uint32_t Sym : SortedSyms) {
    unsigned L = Lengths[Sym];
    if (L > TableBits)
      break; // Longer codes take the bit-serial walk.
    for (uint32_t J = Rev; J < Size; J += 1u << L)
      Table[J] = Sym << 4 | L;
    // Adding one to the MSB-first code clears its trailing ones and sets
    // the zero above them; reversed, that is the highest zero of the low
    // L bits and the ones above it.
    uint32_t Zeros = ~Rev & ((1u << L) - 1);
    if (!Zeros)
      break; // The code space is full.
    uint32_t Top = 1u << (std::bit_width(Zeros) - 1);
    Rev = (Rev & (Top - 1)) | Top;
  }
}

void HuffmanCode::encode(BitWriter &BW, unsigned Sym) const {
  // Encoding a symbol with no code is a caller bug; diagnose it in every
  // build type (an assert alone would silently emit zero bits in NDEBUG
  // builds, producing an undecodable stream).
  if (Sym >= Lengths.size() || !Lengths[Sym])
    reportFatal("HuffmanCode: encoding a symbol with no code");
  if (Codes.empty())
    reportFatal("HuffmanCode: encoding with a decode-only code");
  BW.writeCodeMSB(Codes[Sym], Lengths[Sym]);
}

/// The canonical bit-serial walk: the whole decoder for codes longer than
/// the table, and the one place decode failures are raised, so a table
/// miss fails exactly as a walk from the same position would.
unsigned HuffmanCode::decodeSlow(BitReader &BR) const {
  uint32_t Code = 0;
  for (unsigned L = 1; L <= MaxLen; ++L) {
    Code = (Code << 1) | BR.readBit();
    if (CountOfLen[L] && Code < FirstCode[L] + CountOfLen[L] &&
        Code >= FirstCode[L])
      return SortedSyms[FirstIndex[L] + (Code - FirstCode[L])];
  }
  decodeFail("HuffmanCode: invalid code in stream");
}

uint64_t HuffmanCode::costBits(const std::vector<uint64_t> &Freqs) const {
  uint64_t Bits = 0;
  for (unsigned S = 0; S != Freqs.size() && S != Lengths.size(); ++S)
    Bits += Freqs[S] * Lengths[S];
  return Bits;
}
