//===- tests/test_flate.cpp - LZ77+Huffman compressor tests ------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "flate/Flate.h"
#include "support/ByteIO.h"
#include "support/PRNG.h"

#include "gtest/gtest.h"

#include <numeric>

using namespace ccomp;

namespace {

void roundTrip(const std::vector<uint8_t> &In) {
  std::vector<uint8_t> Z = flate::compress(In);
  std::vector<uint8_t> Out = flate::decompress(Z);
  ASSERT_EQ(Out.size(), In.size());
  ASSERT_EQ(Out, In);
}

} // namespace

TEST(Flate, Empty) { roundTrip({}); }

TEST(Flate, OneByte) { roundTrip({42}); }

TEST(Flate, ShortLiteralOnly) {
  std::vector<uint8_t> In = {'a', 'b', 'c', 'd', 'e'};
  roundTrip(In);
}

TEST(Flate, AllSameByte) {
  std::vector<uint8_t> In(100000, 7);
  std::vector<uint8_t> Z = flate::compress(In);
  EXPECT_LT(Z.size(), In.size() / 50); // Extreme redundancy compresses hard.
  roundTrip(In);
}

TEST(Flate, RepeatedPhrase) {
  std::string Phrase = "the quick brown fox jumps over the lazy dog. ";
  std::vector<uint8_t> In;
  for (int I = 0; I != 500; ++I)
    In.insert(In.end(), Phrase.begin(), Phrase.end());
  std::vector<uint8_t> Z = flate::compress(In);
  EXPECT_LT(Z.size(), In.size() / 10);
  roundTrip(In);
}

TEST(Flate, IncompressibleRandom) {
  PRNG Rng(1);
  std::vector<uint8_t> In(65536);
  for (uint8_t &B : In)
    B = static_cast<uint8_t>(Rng.next());
  std::vector<uint8_t> Z = flate::compress(In);
  // Stored-block fallback keeps expansion tiny.
  EXPECT_LT(Z.size(), In.size() + In.size() / 100 + 64);
  roundTrip(In);
}

TEST(Flate, OverlappingMatches) {
  // "abcabcabc..." exercises overlapping copy semantics (dist < len).
  std::vector<uint8_t> In;
  for (int I = 0; I != 10000; ++I)
    In.push_back(static_cast<uint8_t>('a' + I % 3));
  roundTrip(In);
}

TEST(Flate, MultiBlockInput) {
  PRNG Rng(5);
  std::vector<uint8_t> In;
  // > 64 KiB forces several blocks, mixing compressible and random runs.
  for (int Block = 0; Block != 5; ++Block) {
    for (int I = 0; I != 30000; ++I)
      In.push_back(Block % 2 ? static_cast<uint8_t>(Rng.next())
                             : static_cast<uint8_t>(I % 17));
  }
  roundTrip(In);
}

TEST(Flate, CodeLikeInputCompresses2to3x) {
  // Synthesize fixed-width instruction-like records: gzip-class
  // compressors get factors between 2 and 3 on such data (the paper's
  // stated range for machine code).
  // Real code repeats whole instruction sequences (idioms, prologues),
  // which is what LZ77 exploits. Build a pool of motifs and emit a
  // stream of motif instances with occasional noise records.
  PRNG Rng(11);
  std::vector<std::vector<uint8_t>> Motifs;
  for (int M = 0; M != 64; ++M) {
    std::vector<uint8_t> Motif;
    unsigned Records = 3 + Rng.below(12);
    for (unsigned I = 0; I != Records; ++I) {
      Motif.push_back(static_cast<uint8_t>(Rng.below(40)));
      Motif.push_back(static_cast<uint8_t>(Rng.below(256)));
      uint16_t Imm = static_cast<uint16_t>(4 * Rng.below(16));
      Motif.push_back(static_cast<uint8_t>(Imm));
      Motif.push_back(static_cast<uint8_t>(Imm >> 8));
    }
    Motifs.push_back(std::move(Motif));
  }
  std::vector<uint8_t> In;
  while (In.size() < 120000) {
    const auto &M = Motifs[Rng.below(Motifs.size())];
    In.insert(In.end(), M.begin(), M.end());
    if (Rng.chance(1, 4)) {
      In.push_back(static_cast<uint8_t>(Rng.below(40)));
      In.push_back(static_cast<uint8_t>(Rng.next()));
      In.push_back(static_cast<uint8_t>(Rng.next()));
      In.push_back(0);
    }
  }
  std::vector<uint8_t> Z = flate::compress(In);
  double Factor = double(In.size()) / double(Z.size());
  EXPECT_GT(Factor, 2.0);
  EXPECT_LT(Factor, 15.0);
  roundTrip(In);
}

TEST(Flate, RandomizedFuzzRoundTrip) {
  PRNG Rng(123);
  for (int Trial = 0; Trial != 30; ++Trial) {
    size_t N = Rng.below(20000);
    std::vector<uint8_t> In(N);
    // Mix of runs, ramps and noise.
    size_t I = 0;
    while (I < N) {
      unsigned Mode = static_cast<unsigned>(Rng.below(3));
      size_t Len = std::min<size_t>(N - I, 1 + Rng.below(200));
      uint8_t B = static_cast<uint8_t>(Rng.next());
      for (size_t K = 0; K != Len; ++K, ++I)
        In[I] = Mode == 0 ? B
                : Mode == 1 ? static_cast<uint8_t>(I & 0xFF)
                            : static_cast<uint8_t>(Rng.next());
    }
    roundTrip(In);
  }
}

TEST(Flate, TruncationAtEveryEighthYieldsTypedError) {
  std::vector<uint8_t> In;
  for (int I = 0; I != 20000; ++I)
    In.push_back(static_cast<uint8_t>(I * 31 + I / 7));
  std::vector<uint8_t> Z = flate::compress(In);
  ASSERT_GT(Z.size(), 8u);
  for (unsigned K = 0; K != 8; ++K) {
    std::vector<uint8_t> Cut(Z.begin(), Z.begin() + Z.size() * K / 8);
    Result<std::vector<uint8_t>> R = flate::tryDecompress(Cut);
    EXPECT_FALSE(R.ok()) << "prefix " << K << "/8 decoded";
    if (!R.ok())
      EXPECT_FALSE(R.error().message().empty());
  }
}

TEST(Flate, TrailingBytesAfterFinalBlockRejected) {
  // Regression: the decoder stopped at the final block and ignored what
  // followed, so a valid frame plus two appended bytes decoded fine.
  // Only the final byte's padding (fewer than 8 bits) may remain.
  for (size_t N : {1u, 100u, 5000u}) {
    std::vector<uint8_t> In(N);
    for (size_t I = 0; I != N; ++I)
      In[I] = static_cast<uint8_t>(I * 7 + I / 13);
    std::vector<uint8_t> Z = flate::compress(In);
    ASSERT_TRUE(flate::tryDecompress(Z).ok());
    for (size_t Extra : {1u, 2u}) {
      std::vector<uint8_t> Padded = Z;
      Padded.insert(Padded.end(), Extra, 0);
      Result<std::vector<uint8_t>> R = flate::tryDecompress(Padded);
      ASSERT_FALSE(R.ok()) << N << " bytes + " << Extra;
      EXPECT_EQ(R.error().message(),
                "flate: trailing bytes after final block");
    }
  }
}

TEST(Flate, StoredBlocksAndLongOverlappingMatchesRoundTrip) {
  // Stored blocks start at any bit offset, and runs decode as
  // overlapping matches of every distance from 1 up: both now copy in
  // blocks, not byte by byte through the bit reader.
  PRNG Rng(11);
  std::vector<uint8_t> Noise(70000);
  for (uint8_t &B : Noise)
    B = static_cast<uint8_t>(Rng.next());
  roundTrip(Noise); // Incompressible: stored blocks.
  std::vector<uint8_t> Runs;
  for (unsigned Period = 1; Period != 40; ++Period)
    for (unsigned I = 0; I != 600; ++I)
      Runs.push_back(static_cast<uint8_t>(Period * 3 + I % Period));
  Runs.insert(Runs.end(), Noise.begin(), Noise.begin() + 3000);
  roundTrip(Runs);
}

TEST(Flate, HugeDeclaredSizeRejectedWithoutAllocating) {
  // Regression: the decoder used to `reserve(OrigSize)` straight from
  // the frame's unvalidated varint, so a 12-byte input claiming a 1 TiB
  // output allocated (or died trying) before the first block was read.
  ByteWriter W;
  W.writeVarU(1ull << 40); // Declared original size: 1 TiB.
  W.writeU8(0x00);         // A token of block data, nowhere near enough.
  W.writeU8(0x00);
  Result<std::vector<uint8_t>> R = flate::tryDecompress(W.bytes());
  ASSERT_FALSE(R.ok());
  EXPECT_FALSE(R.error().message().empty());
}

TEST(Flate, GarbageInputsYieldTypedErrors) {
  PRNG Rng(77);
  for (int Trial = 0; Trial != 50; ++Trial) {
    std::vector<uint8_t> Junk(Rng.below(200));
    for (uint8_t &B : Junk)
      B = static_cast<uint8_t>(Rng.next());
    // Must terminate promptly with either a clean decode or a typed
    // error; gtest's timeout (and the sanitizers) police the rest.
    (void)flate::tryDecompress(Junk);
  }
}

TEST(Flate, LazyMatchingNoWorse) {
  std::string Phrase = "abcde abcdx abcde abcdx ";
  std::vector<uint8_t> In;
  for (int I = 0; I != 300; ++I)
    In.insert(In.end(), Phrase.begin(), Phrase.end());
  flate::Options Lazy;
  flate::Options Greedy;
  Greedy.Lazy = false;
  size_t L = flate::compress(In, Lazy).size();
  size_t G = flate::compress(In, Greedy).size();
  EXPECT_LE(L, G + 8);
  EXPECT_EQ(flate::decompress(flate::compress(In, Greedy)), In);
}
