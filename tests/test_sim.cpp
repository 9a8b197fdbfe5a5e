//===- tests/test_sim.cpp - Transport and paging simulators --------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/Paging.h"
#include "sim/Transport.h"
#include "support/PRNG.h"

#include "gtest/gtest.h"

using namespace ccomp;
using namespace ccomp::sim;

TEST(Transport, TransferTimes) {
  Link Modem = modem28k();
  // 28800 bits/s: 3600 bytes take 1 second plus latency.
  EXPECT_NEAR(Modem.transferSeconds(3600), 1.0 + Modem.LatencySeconds,
              1e-9);
  Link Lan = ethernet10M();
  EXPECT_LT(Lan.transferSeconds(100000), Modem.transferSeconds(100000));
  EXPECT_GT(Modem.transferSeconds(1), 0.0);
}

TEST(Transport, DeliveryTotals) {
  Delivery D = deliver(ethernet10M(), 1000000, 0.5);
  EXPECT_NEAR(D.total(), D.TransferSeconds + 0.5, 1e-12);
}

// Pins the two costing modes: LatencySeconds is per-transfer *setup*,
// charged exactly once by transferSeconds() and not at all by
// streamSeconds(). A frame stream over one session costs latency once
// plus the summed stream time — never N redials.
TEST(Transport, LatencyChargedOncePerTransferAndBatchedStreams) {
  for (const Link &L : {modem28k(), isdn128k(), ethernet10M(), fast100M()}) {
    EXPECT_NEAR(L.streamSeconds(3600), 3600 * 8.0 / L.BitsPerSecond, 1e-12)
        << L.Name;
    EXPECT_NEAR(L.transferSeconds(3600),
                L.LatencySeconds + L.streamSeconds(3600), 1e-12)
        << L.Name;
    EXPECT_NEAR(L.transferSeconds(0), L.LatencySeconds, 1e-12)
        << L.Name << ": an empty transfer still pays setup exactly once";

    // 100 frames of 512 bytes: per-fetch vs one batched session.
    double PerFetch = 0, Stream = 0;
    for (int I = 0; I != 100; ++I) {
      PerFetch += L.transferSeconds(512);
      Stream += L.streamSeconds(512);
    }
    double Batched = L.LatencySeconds + Stream;
    EXPECT_NEAR(PerFetch, 100 * L.LatencySeconds + Stream, 1e-9) << L.Name;
    EXPECT_NEAR(PerFetch - Batched, 99 * L.LatencySeconds, 1e-9)
        << L.Name << ": the modes differ by exactly the saved redials";
  }
}

TEST(Paging, SequentialFitsInBudget) {
  // 4 pages cycled, 4 frames: only compulsory faults.
  std::vector<uint32_t> Trace;
  for (int I = 0; I != 100; ++I)
    Trace.push_back(I % 4);
  PagingResult R = simulateLRU(Trace, 4);
  EXPECT_EQ(R.Faults, 4u);
  EXPECT_EQ(R.References, 100u);
}

TEST(Paging, LruEvictsLeastRecent) {
  // Classic LRU check: with 2 frames, trace 1 2 1 3 2 faults on
  // 1, 2, 3 (evicts 2), then 2 again (evicted) -> 4 faults.
  std::vector<uint32_t> Trace = {1, 2, 1, 3, 2};
  PagingResult R = simulateLRU(Trace, 2);
  EXPECT_EQ(R.Faults, 4u);
}

TEST(Paging, ThrashingWhenBudgetTooSmall) {
  // Cyclic access over N+1 pages with N frames: LRU faults every time.
  std::vector<uint32_t> Trace;
  for (int I = 0; I != 90; ++I)
    Trace.push_back(I % 9);
  PagingResult R = simulateLRU(Trace, 8);
  EXPECT_EQ(R.Faults, 90u);
}

TEST(Paging, MoreFramesNeverMoreFaults) {
  // LRU is a stack algorithm: faults are monotone in the frame count.
  PRNG Rng(77);
  std::vector<uint32_t> Trace;
  uint32_t Cur = 0;
  for (int I = 0; I != 5000; ++I) {
    Cur = Rng.chance(3, 4) ? (Cur + 1) % 40
                           : static_cast<uint32_t>(Rng.below(40));
    Trace.push_back(Cur);
  }
  uint64_t Prev = ~0ull;
  for (unsigned Frames : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    PagingResult R = simulateLRU(Trace, Frames);
    EXPECT_LE(R.Faults, Prev) << Frames << " frames";
    Prev = R.Faults;
  }
}

TEST(Paging, ZeroBudgetFaultsAlways) {
  std::vector<uint32_t> Trace = {1, 2, 3};
  PagingResult R = simulateLRU(Trace, 0);
  EXPECT_EQ(R.Faults, 3u);
}

TEST(Paging, TotalTimeModel) {
  PagingResult P;
  P.Faults = 10;
  DiskModel D;
  TotalTime T = totalTime(2.0, P, D);
  EXPECT_NEAR(T.CpuSeconds, 2.0, 1e-12);
  EXPECT_NEAR(T.PagingSeconds, 10 * D.FaultSeconds, 1e-12);
  EXPECT_NEAR(T.total(), 2.0 + 10 * D.FaultSeconds, 1e-12);
}
