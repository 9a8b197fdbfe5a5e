//===- tests/test_support.cpp - Bit I/O, Huffman, MTF, varints ---------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/BWT.h"
#include "support/BitStream.h"
#include "support/ByteIO.h"
#include "support/Error.h"
#include "support/Huffman.h"
#include "support/MTF.h"
#include "support/PRNG.h"
#include "support/Support.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <string>

using namespace ccomp;

TEST(BitStream, RoundTripFixedPatterns) {
  BitWriter W;
  W.writeBits(0b101, 3);
  W.writeBits(0xFFFF, 16);
  W.writeBits(0, 1);
  W.writeBits(0x12345678, 32);
  std::vector<uint8_t> B = W.finish();
  BitReader R(B);
  EXPECT_EQ(R.readBits(3), 0b101u);
  EXPECT_EQ(R.readBits(16), 0xFFFFu);
  EXPECT_EQ(R.readBits(1), 0u);
  EXPECT_EQ(R.readBits(32), 0x12345678u);
}

TEST(BitStream, RandomRoundTrip) {
  PRNG Rng(7);
  std::vector<std::pair<uint32_t, unsigned>> Items;
  BitWriter W;
  for (int I = 0; I != 10000; ++I) {
    unsigned N = 1 + Rng.below(32);
    uint32_t V = static_cast<uint32_t>(Rng.next()) &
                 (N >= 32 ? 0xFFFFFFFFu : ((1u << N) - 1));
    Items.push_back({V, N});
    W.writeBits(V, N);
  }
  std::vector<uint8_t> B = W.finish();
  BitReader R(B);
  for (auto [V, N] : Items)
    ASSERT_EQ(R.readBits(N), V);
}

TEST(ByteIO, VarIntRoundTrip) {
  ByteWriter W;
  std::vector<int64_t> Signed = {0, 1, -1, 63, -64, 64, -65, 1 << 20,
                                 -(1 << 20), INT64_MAX, INT64_MIN};
  for (int64_t V : Signed)
    W.writeVarS(V);
  std::vector<uint64_t> Unsigned = {0, 127, 128, 1u << 14, UINT64_MAX};
  for (uint64_t V : Unsigned)
    W.writeVarU(V);
  W.writeStr("hello world");
  ByteReader R(W.bytes());
  for (int64_t V : Signed)
    EXPECT_EQ(R.readVarS(), V);
  for (uint64_t V : Unsigned)
    EXPECT_EQ(R.readVarU(), V);
  EXPECT_EQ(R.readStr(), "hello world");
  EXPECT_TRUE(R.atEnd());
}

TEST(Huffman, SingleSymbol) {
  std::vector<uint64_t> Freq = {0, 10, 0};
  std::vector<uint8_t> Lens = buildHuffmanLengths(Freq);
  EXPECT_EQ(Lens[1], 1);
  HuffmanCode Code(Lens);
  BitWriter W;
  for (int I = 0; I != 5; ++I)
    Code.encode(W, 1);
  std::vector<uint8_t> B = W.finish();
  BitReader R(B);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(Code.decode(R), 1u);
}

TEST(Huffman, SkewedFrequenciesGiveShortCodes) {
  std::vector<uint64_t> Freq = {1000, 10, 10, 1};
  std::vector<uint8_t> Lens = buildHuffmanLengths(Freq);
  EXPECT_LE(Lens[0], Lens[1]);
  EXPECT_LE(Lens[1], Lens[3]);
}

TEST(Huffman, RandomRoundTrip) {
  PRNG Rng(99);
  for (int Trial = 0; Trial != 20; ++Trial) {
    unsigned Alphabet = 2 + Rng.below(300);
    std::vector<uint64_t> Freq(Alphabet, 0);
    std::vector<unsigned> Data;
    for (int I = 0; I != 2000; ++I) {
      // Zipf-ish skew.
      unsigned S = static_cast<unsigned>(Rng.below(Alphabet));
      S = S * S / Alphabet;
      Data.push_back(S);
      ++Freq[S];
    }
    HuffmanCode Code(buildHuffmanLengths(Freq, 15));
    BitWriter W;
    for (unsigned S : Data)
      Code.encode(W, S);
    std::vector<uint8_t> B = W.finish();
    BitReader R(B);
    for (unsigned S : Data)
      ASSERT_EQ(Code.decode(R), S);
  }
}

TEST(Huffman, LengthLimitRespected) {
  // Fibonacci-like frequencies force deep trees; the limiter must cap
  // them at the requested depth while staying decodable.
  std::vector<uint64_t> Freq;
  uint64_t A = 1, B = 1;
  for (int I = 0; I != 40; ++I) {
    Freq.push_back(A);
    uint64_t T = A + B;
    A = B;
    B = T;
  }
  std::vector<uint8_t> Lens = buildHuffmanLengths(Freq, 12);
  for (uint8_t L : Lens)
    EXPECT_LE(L, 12);
  EXPECT_TRUE(HuffmanCode::isValidLengthSet(Lens));
}

TEST(MTF, PaperExample) {
  // The ADDRLP stream example from section 3: [72 72 68 72 68 68 68 68]
  // MTF-codes to [0 1 0 2 2 1 1 1].
  std::vector<uint64_t> Stream = {72, 72, 68, 72, 68, 68, 68, 68};
  std::vector<uint32_t> Expect = {0, 1, 0, 2, 2, 1, 1, 1};
  MTFEncoder Enc;
  for (size_t I = 0; I != Stream.size(); ++I) {
    MTFToken T = Enc.encode(Stream[I]);
    EXPECT_EQ(T.Index, Expect[I]) << "position " << I;
  }
}

TEST(MTF, RoundTrip) {
  PRNG Rng(3);
  MTFEncoder Enc;
  MTFDecoder Dec;
  for (int I = 0; I != 5000; ++I) {
    uint64_t V = Rng.below(50); // Small alphabet forces table reuse.
    MTFToken T = Enc.encode(V);
    EXPECT_EQ(Dec.decode(T.Index, T.NewSymbol), V);
  }
}

TEST(MTF, LocalityYieldsSmallIndices) {
  // A stream with high locality should produce mostly tiny indices.
  MTFEncoder Enc;
  uint64_t Sum = 0;
  unsigned N = 0;
  for (int Rep = 0; Rep != 100; ++Rep)
    for (uint64_t V : {5, 5, 5, 9, 5, 9, 9, 5}) {
      Sum += Enc.encode(V).Index;
      ++N;
    }
  EXPECT_LT(Sum / double(N), 2.0);
}

TEST(ByteIO, ReadPastEndThrowsDecodeError) {
  std::vector<uint8_t> Buf = {1, 2};
  ByteReader R(Buf);
  EXPECT_EQ(R.readU8(), 1u);
  EXPECT_EQ(R.readU8(), 2u);
  EXPECT_THROW(R.readU8(), DecodeError);
}

TEST(ByteIO, ReadStrHugeLengthRejectedWithoutOverflow) {
  // Regression: a length prefix near UINT64_MAX made the old bounds
  // check `Pos + Len > N` wrap around and pass, then read out of
  // bounds. The reader must reject it with a typed error instead.
  ByteWriter W;
  W.writeVarU(UINT64_MAX - 2);
  W.writeU8('x');
  ByteReader R(W.bytes());
  EXPECT_THROW(R.readStr(), DecodeError);

  std::vector<uint8_t> One = {'x'};
  ByteReader R2(One);
  EXPECT_THROW(R2.readBytes(UINT64_MAX - 2), DecodeError);
}

TEST(ByteIO, MalformedVarIntRejected) {
  // Ten continuation bytes exceed the 64-bit varint limit.
  std::vector<uint8_t> Buf(10, 0xFF);
  ByteReader R(Buf);
  EXPECT_THROW(R.readVarU(), DecodeError);
  // Truncated mid-varint (continuation bit set on the last byte).
  std::vector<uint8_t> Cut = {0x80};
  ByteReader R2(Cut);
  EXPECT_THROW(R2.readVarU(), DecodeError);
}

TEST(ByteIO, VarU32RejectsWideValues) {
  ByteWriter W;
  W.writeVarU(UINT32_MAX);
  W.writeVarU(uint64_t(UINT32_MAX) + 1);
  W.writeVarU((uint64_t(1) << 32) + 4);
  std::vector<uint8_t> Buf = W.take();
  ByteReader R(Buf);
  EXPECT_EQ(R.readVarU32(), UINT32_MAX);
  EXPECT_THROW(R.readVarU32(), DecodeError);
  EXPECT_THROW(R.readVarU32(), DecodeError);
}

TEST(BitStream, ReadPastEndThrowsDecodeError) {
  BitWriter W;
  W.writeBits(0x5, 3);
  std::vector<uint8_t> B = W.finish();
  BitReader R(B);
  (void)R.readBits(8); // Padding bits of the final byte are readable.
  EXPECT_THROW(R.readBits(8), DecodeError);
}

TEST(BitStreamDeath, WriteBitsCountOutOfRangeAbortsInEveryBuild) {
  // Regression: in release builds an assert-only check let NBits > 32
  // silently corrupt the stream (mis-decode, no diagnostic). This must
  // abort regardless of NDEBUG.
  BitWriter W;
  EXPECT_DEATH(W.writeBits(0, 33), "bit count out of range");
}

TEST(HuffmanDeath, EncodingCodelessSymbolAbortsInEveryBuild) {
  // Regression: encoding a symbol with no assigned code emitted zero
  // bits in release builds, producing a stream that decodes to the
  // wrong symbol sequence. This must abort regardless of NDEBUG.
  std::vector<uint64_t> Freq = {10, 10, 0};
  HuffmanCode Code(buildHuffmanLengths(Freq));
  BitWriter W;
  EXPECT_DEATH(Code.encode(W, 2), "no code");
  EXPECT_DEATH(Code.encode(W, 99), "no code");
}

TEST(Huffman, DecodeInvalidCodeThrowsDecodeError) {
  // A code table over symbols {0,1} never assigns the all-ones deep
  // codeword that a corrupt stream can contain.
  std::vector<uint64_t> Freq = {1000, 1};
  HuffmanCode Code(buildHuffmanLengths(Freq));
  std::vector<uint8_t> Ones(8, 0xFF);
  BitReader R(Ones);
  // Either decodes (both codes are 1 bit) or throws at end of stream;
  // drain it and require the typed error, never a crash.
  EXPECT_THROW(
      {
        for (int I = 0; I != 100; ++I)
          (void)Code.decode(R);
      },
      DecodeError);
}

namespace {

/// How a decode of a symbol sequence ended.
enum class Stop { Done, Truncated, Invalid };

struct Decoded {
  std::vector<unsigned> Syms;
  std::vector<size_t> BitPos; ///< Stream position after each symbol.
  Stop End = Stop::Done;
};

/// The canonical Huffman decoder written out bit by bit, independent of
/// BitReader: read one bit, extend the MSB-first code, and stop at the
/// first length whose canonical range holds it.
Decoded referenceDecode(const std::vector<uint8_t> &Lens,
                        const std::vector<uint8_t> &Bytes, size_t Count) {
  unsigned MaxLen = 0;
  for (uint8_t L : Lens)
    MaxLen = std::max<unsigned>(MaxLen, L);
  // Canonical codes: by length, then symbol.
  std::vector<std::pair<uint32_t, unsigned>> CodeOf(Lens.size(), {0, 0});
  uint32_t Code = 0;
  for (unsigned L = 1; L <= MaxLen; ++L) {
    for (unsigned S = 0; S != Lens.size(); ++S)
      if (Lens[S] == L)
        CodeOf[S] = {Code++, L};
    Code <<= 1;
  }
  Decoded D;
  size_t Pos = 0;
  const size_t NBits = Bytes.size() * 8;
  for (size_t K = 0; K != Count; ++K) {
    uint32_t V = 0;
    bool Found = false;
    for (unsigned L = 1; L <= MaxLen && !Found; ++L) {
      if (Pos >= NBits) {
        D.End = Stop::Truncated;
        return D;
      }
      V = V << 1 | ((Bytes[Pos / 8] >> (Pos % 8)) & 1);
      ++Pos;
      for (unsigned S = 0; S != Lens.size(); ++S)
        if (CodeOf[S].second == L && CodeOf[S].first == V) {
          D.Syms.push_back(S);
          D.BitPos.push_back(Pos);
          Found = true;
          break;
        }
    }
    if (!Found) {
      D.End = Stop::Invalid;
      return D;
    }
  }
  return D;
}

Decoded codeDecode(const HuffmanCode &Code, const std::vector<uint8_t> &Bytes,
                   size_t Count) {
  Decoded D;
  BitReader R(Bytes);
  for (size_t K = 0; K != Count; ++K) {
    try {
      D.Syms.push_back(Code.decode(R));
      D.BitPos.push_back(R.bitPos());
    } catch (const DecodeError &E) {
      std::string M = E.message();
      D.End = M.find("past end") != std::string::npos ? Stop::Truncated
              : M.find("invalid code") != std::string::npos
                  ? Stop::Invalid
                  : Stop::Done;
      EXPECT_NE(D.End, Stop::Done) << "unexpected decode error: " << M;
      return D;
    }
  }
  return D;
}

/// A random valid length set over \p N symbols with lengths <= \p MaxLen:
/// complete when \p Complete, else with Kraft sum below one.
std::vector<uint8_t> randomLengths(PRNG &Rng, unsigned N, unsigned MaxLen,
                                   bool Complete) {
  unsigned Live = 1 + static_cast<unsigned>(
                          Rng.below(std::min<uint64_t>(N, 1ull << MaxLen)));
  std::vector<uint64_t> Freq(N, 0);
  for (unsigned K = 0; K != Live; ++K)
    Freq[Rng.below(N)] += 1 + Rng.below(1000) * Rng.below(3);
  std::vector<uint8_t> Lens = buildHuffmanLengths(Freq, MaxLen);
  if (!Complete) {
    // Dropping a code (or lengthening one) leaves a hole in the code
    // space; a lone live symbol already has one.
    std::vector<unsigned> Coded;
    for (unsigned S = 0; S != N; ++S)
      if (Lens[S])
        Coded.push_back(S);
    unsigned Pick = Coded[Rng.below(Coded.size())];
    if (Coded.size() > 1 && Rng.chance(1, 2))
      Lens[Pick] = 0;
    else if (Lens[Pick] < MaxLen)
      ++Lens[Pick];
  }
  return Lens;
}

} // namespace

TEST(Huffman, TableDecodeMatchesBitSerialWalk) {
  // The table decoder must agree with the canonical bit-serial walk on
  // every symbol, every stream position, and the kind of failure: random
  // complete and incomplete codes, alphabets of 1..286 symbols, maximum
  // lengths 1..15 (around and past the table width), valid streams cut
  // inside a code, and random bits that hit codes no symbol owns.
  PRNG Rng(2024);
  unsigned Cut = 0, Invalid = 0;
  for (int Trial = 0; Trial != 600; ++Trial) {
    unsigned N = 1 + static_cast<unsigned>(Rng.below(286));
    unsigned MaxLen = 1 + static_cast<unsigned>(Rng.below(15));
    bool Complete = Rng.chance(1, 2);
    std::vector<uint8_t> Lens = randomLengths(Rng, N, MaxLen, Complete);
    ASSERT_TRUE(HuffmanCode::isValidLengthSet(Lens));
    HuffmanCode Both(Lens);
    HuffmanCode Dec(Lens, HuffmanCode::Use::Decode);
    HuffmanCode Walk(Lens, HuffmanCode::Use::Encode); // No table.

    std::vector<unsigned> Coded;
    for (unsigned S = 0; S != N; ++S)
      if (Lens[S])
        Coded.push_back(S);
    std::vector<std::vector<uint8_t>> Streams;
    // A valid stream of random symbols, whole and cut short.
    BitWriter W;
    size_t Count = 1 + Rng.below(200);
    for (size_t K = 0; K != Count; ++K)
      Both.encode(W, Coded[Rng.below(Coded.size())]);
    std::vector<uint8_t> Valid = W.finish();
    Streams.push_back(Valid);
    for (int C = 0; C != 3; ++C)
      Streams.emplace_back(Valid.begin(),
                           Valid.begin() + Rng.below(Valid.size() + 1));
    // Random bits.
    std::vector<uint8_t> Noise(1 + Rng.below(64));
    for (uint8_t &B : Noise)
      B = static_cast<uint8_t>(Rng.next());
    Streams.push_back(Noise);

    for (const std::vector<uint8_t> &S : Streams) {
      size_t Want = Count + 8;
      Decoded Ref = referenceDecode(Lens, S, Want);
      for (const HuffmanCode *C : {&Both, &Dec, &Walk}) {
        Decoded Got = codeDecode(*C, S, Want);
        ASSERT_EQ(Got.Syms, Ref.Syms) << "trial " << Trial;
        ASSERT_EQ(Got.BitPos, Ref.BitPos) << "trial " << Trial;
        ASSERT_EQ(Got.End, Ref.End) << "trial " << Trial;
      }
      Cut += Ref.End == Stop::Truncated;
      Invalid += Ref.End == Stop::Invalid;
    }
  }
  // The trials must reach both failure kinds, not only clean decodes.
  EXPECT_GT(Cut, 100u);
  EXPECT_GT(Invalid, 50u);
}

TEST(Huffman, TableDecodeStopsInsideAShortCodeAtTheEnd) {
  // Lengths {1, 2, 3, 3}: codes 0, 10, 110, 111 (MSB-first). A stream
  // whose last byte ends inside "110" must fail as truncated, exactly as
  // the walk does, even though the table could match the zero padding.
  std::vector<uint8_t> Lens = {1, 2, 3, 3};
  HuffmanCode Code(Lens);
  BitWriter W;
  for (int K = 0; K != 7; ++K)
    Code.encode(W, 0); // Seven 1-bit codes...
  Code.encode(W, 2);   // ...then a 3-bit code straddling the byte.
  std::vector<uint8_t> B = W.finish();
  ASSERT_EQ(B.size(), 2u);
  B.pop_back();
  Decoded Ref = referenceDecode(Lens, B, 8);
  Decoded Got = codeDecode(Code, B, 8);
  EXPECT_EQ(Ref.End, Stop::Truncated);
  EXPECT_EQ(Got.Syms, Ref.Syms);
  EXPECT_EQ(Got.End, Stop::Truncated);
}

TEST(BitStream, PeekSkipAndByteRunsAtAnyAlignment) {
  PRNG Rng(5);
  std::vector<uint8_t> Data(300);
  for (uint8_t &B : Data)
    B = static_cast<uint8_t>(Rng.next());
  for (unsigned Lead = 0; Lead != 16; ++Lead) {
    BitReader R(Data);
    uint32_t Head = R.readBits(Lead);
    EXPECT_EQ(Head, Lead ? (Data[0] | Data[1] << 8) & ((1u << Lead) - 1) : 0);
    // A peek does not consume; a skip does.
    uint32_t P = R.peekBits(9);
    EXPECT_EQ(R.peekBits(9), P);
    EXPECT_GE(R.bufferedBits(), 9u);
    R.skipBits(9);
    EXPECT_EQ(R.bitPos(), Lead + 9u);
    // Whole bytes from an arbitrary bit offset.
    size_t At = R.bitPos();
    std::vector<uint8_t> Out(200);
    R.readBytes(Out.data(), Out.size());
    for (size_t I = 0; I != Out.size(); ++I) {
      size_t Bit = At + 8 * I;
      unsigned V = (Data[Bit / 8] | Data[Bit / 8 + 1] << 8) >> (Bit % 8);
      ASSERT_EQ(Out[I], static_cast<uint8_t>(V)) << "lead " << Lead;
    }
    EXPECT_EQ(R.bitPos(), At + 1600);
    // Reading continues bit-exactly after the run.
    size_t Bit = R.bitPos();
    unsigned Want = (Data[Bit / 8] | Data[Bit / 8 + 1] << 8) >> (Bit % 8);
    EXPECT_EQ(R.readBits(5), Want & 31u);
    // A run longer than the rest of the stream fails before reading.
    EXPECT_THROW(R.readBytes(Out.data(), 100), DecodeError);
  }
  // Peeking past the end pads with zeros and reports the real bits.
  std::vector<uint8_t> One = {0xA5};
  BitReader R(One);
  R.readBits(3);
  EXPECT_EQ(R.peekBits(9), 0xA5u >> 3);
  EXPECT_EQ(R.bufferedBits(), 5u);
  EXPECT_EQ(R.bitsLeft(), 5u);
  R.skipBits(5);
  EXPECT_EQ(R.bitsLeft(), 0u);
  EXPECT_THROW(R.readBits(1), DecodeError);
}

TEST(MTF, DecodeOutOfRangeIndexThrowsDecodeError) {
  MTFDecoder Dec;
  (void)Dec.decode(0, 7); // Table now holds one symbol.
  EXPECT_THROW(Dec.decode(5, 0), DecodeError);
}

TEST(MTF, DecoderCapsTableGrowth) {
  // Regression: a hostile stream of Index==0 tokens grew the decoder
  // table without bound. The cap must reject the first token past it
  // with a typed error, not allocate.
  MTFDecoder Dec(4);
  for (uint64_t V = 0; V != 4; ++V)
    EXPECT_EQ(Dec.decode(0, V), V);
  EXPECT_EQ(Dec.tableSize(), 4u);
  try {
    Dec.decode(0, 99);
    FAIL() << "cap not enforced";
  } catch (const DecodeError &E) {
    EXPECT_NE(std::string(E.what()).find("table size cap"),
              std::string::npos);
  }
  // Table-addressing tokens still work at the cap.
  EXPECT_EQ(Dec.decode(4, 0), 0u);
}

TEST(MTF, DecoderRejectsDuplicateNewSymbol) {
  // The encoder never re-announces a seen symbol (it addresses the
  // table instead), so a duplicate "new symbol" token only occurs in a
  // corrupt or hostile stream and must be a typed reject.
  MTFDecoder Dec;
  EXPECT_EQ(Dec.decode(0, 7), 7u);
  EXPECT_EQ(Dec.decode(0, 9), 9u);
  try {
    Dec.decode(0, 7);
    FAIL() << "duplicate accepted";
  } catch (const DecodeError &E) {
    EXPECT_NE(std::string(E.what()).find("duplicate new-symbol"),
              std::string::npos);
  }
}

TEST(BWT, KnownTransformAndRoundTrip) {
  const std::string S = "banana";
  std::vector<uint8_t> In(S.begin(), S.end());
  BWTResult R = bwtForward(ByteSpan(In.data(), In.size()));
  EXPECT_EQ(std::string(R.LastCol.begin(), R.LastCol.end()), "nnbaaa");
  EXPECT_EQ(bwtInverse(R.LastCol, R.Primary), In);
}

TEST(BWT, RandomAndPeriodicRoundTrip) {
  PRNG Rng(11);
  for (int Trial = 0; Trial != 30; ++Trial) {
    size_t N = Rng.below(400);
    std::vector<uint8_t> In(N);
    for (uint8_t &B : In)
      B = static_cast<uint8_t>(Rng.below(Trial % 3 ? 256 : 4));
    BWTResult R = bwtForward(ByteSpan(In.data(), In.size()));
    ASSERT_EQ(bwtInverse(R.LastCol, R.Primary), In) << "trial " << Trial;
  }
  // Periodic inputs have identical rotations; the index tie-break must
  // keep the transform deterministic and invertible all the same.
  std::vector<uint8_t> Periodic;
  for (int I = 0; I != 64; ++I)
    Periodic.push_back(I % 2 ? 0xAB : 0xCD);
  BWTResult A = bwtForward(ByteSpan(Periodic.data(), Periodic.size()));
  BWTResult B = bwtForward(ByteSpan(Periodic.data(), Periodic.size()));
  EXPECT_EQ(A.LastCol, B.LastCol);
  EXPECT_EQ(A.Primary, B.Primary);
  EXPECT_EQ(bwtInverse(A.LastCol, A.Primary), Periodic);
}

TEST(BWT, InverseRejectsBadPrimary) {
  std::vector<uint8_t> Col = {1, 2, 3};
  EXPECT_THROW(bwtInverse(Col, 3), DecodeError);
  EXPECT_THROW(bwtInverse({}, 1), DecodeError);
  EXPECT_TRUE(bwtInverse({}, 0).empty());
}

TEST(Support, ParseUnsignedAcceptsStrictDecimalInRange) {
  uint64_t V = 77;
  EXPECT_TRUE(parseUnsigned("0", 0, 10, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("1024", 1, 4096, V));
  EXPECT_EQ(V, 1024u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", 0, UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(Support, ParseUnsignedRejectsGarbageRangeAndOverflow) {
  // Regression: the CLI used atoi, which maps "4x" to 4, "-3" to a
  // negative surprise, and overflow to UB. The replacement must reject
  // every shape and leave the output untouched.
  uint64_t V = 77;
  EXPECT_FALSE(parseUnsigned("", 0, 10, V));
  EXPECT_FALSE(parseUnsigned(nullptr, 0, 10, V));
  EXPECT_FALSE(parseUnsigned("-3", 0, 10, V));
  EXPECT_FALSE(parseUnsigned("4x", 0, 10, V));
  EXPECT_FALSE(parseUnsigned(" 4", 0, 10, V));
  EXPECT_FALSE(parseUnsigned("0x10", 0, 100, V));
  EXPECT_FALSE(parseUnsigned("11", 0, 10, V));
  EXPECT_FALSE(parseUnsigned("0", 1, 10, V));
  EXPECT_FALSE(parseUnsigned("18446744073709551616", 0, UINT64_MAX, V));
  EXPECT_FALSE(parseUnsigned("99999999999999999999999", 0, UINT64_MAX, V));
  EXPECT_EQ(V, 77u);
}

TEST(PRNG, Deterministic) {
  PRNG A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  PRNG C(43);
  bool Different = false;
  PRNG A2(42);
  for (int I = 0; I != 10; ++I)
    Different |= A2.next() != C.next();
  EXPECT_TRUE(Different);
}
