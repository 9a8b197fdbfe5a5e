//===- harness/NetLoad.h - Many-client frame-server load driver *- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reusable half of the frame-server scale harness: spawn N
/// concurrent VM clients against one net::FrameServer, each dialing its
/// own SocketFrameSource, loading a CodeStore over it, and executing
/// the stored program end-to-end; verify every client's output is
/// byte-identical to a reference run; and report throughput plus
/// p50/p95/p99 *fault latency* (wall time of each frame fetch,
/// measured at the FrameSource seam by a timing decorator so the
/// numbers include the full client-side round trip, not just server
/// service time). bench_frame_server drives this; tests reuse it at
/// smaller client counts.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_HARNESS_NETLOAD_H
#define CCOMP_HARNESS_NETLOAD_H

#include "net/SocketFrameSource.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ccomp {
namespace harness {

/// Wraps any FrameSource and records the wall-clock seconds of every
/// fetch (frames and manifest alike) while forwarding everything else —
/// including the prefetchHint coalescing seam and the handshake content
/// hash, so timing a socket source changes nothing about its behavior.
class TimingFrameSource final : public store::FrameSource {
public:
  explicit TimingFrameSource(std::unique_ptr<store::FrameSource> Wrapped)
      : Inner(std::move(Wrapped)) {}

  const char *kind() const override { return Inner->kind(); }
  const std::string &chainSpec() const override { return Inner->chainSpec(); }
  uint32_t functionFrameCount() const override {
    return Inner->functionFrameCount();
  }
  size_t frameBytes() const override { return Inner->frameBytes(); }
  bool contentHash(uint64_t &H) override { return Inner->contentHash(H); }
  void prefetchHint(const std::vector<uint32_t> &Ids) override {
    Inner->prefetchHint(Ids);
  }

  store::FetchResult fetchFrame(uint32_t Id) override {
    return timed([&] { return Inner->fetchFrame(Id); });
  }
  store::FetchResult fetchManifest() override {
    return timed([&] { return Inner->fetchManifest(); });
  }

  /// The recorded per-fetch latencies, in seconds. Call after the runs
  /// that should be measured; the vector keeps growing while fetches
  /// happen.
  std::vector<double> takeSamples() {
    std::lock_guard<std::mutex> L(Mu);
    return std::move(Samples);
  }

private:
  template <class Fn> store::FetchResult timed(Fn &&F) {
    auto T0 = std::chrono::steady_clock::now();
    store::FetchResult R = F();
    double S = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
    std::lock_guard<std::mutex> L(Mu);
    Samples.push_back(S);
    return R;
  }

  std::unique_ptr<store::FrameSource> Inner;
  std::mutex Mu;
  std::vector<double> Samples;
};

/// Percentile over \p Sorted (ascending); \p Q in [0, 1].
inline double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] * (1.0 - Frac) + Sorted[Hi] * Frac;
}

struct LoadOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  unsigned Clients = 256;
  /// Per-client decoded-cache budget (small budgets force re-fetches).
  size_t CacheBudgetBytes = 1u << 20;
  /// Per-client retry policy; RealTime is forced on (the transport is
  /// a real network — virtual deadlines would never fire).
  store::RetryPolicy Retry;
  /// When set, each client issues one coalesced prefetch of every
  /// function before executing.
  bool PrefetchAll = false;
  /// When set, each client runs with a prefetch pool on its resolver:
  /// every fault also warms the store's predicted-next frames
  /// (coalesced by the socket source into GetBatch round trips).
  bool Predictive = false;
  /// Optional recorded execution trace installed on each client's store
  /// before running (the predicted-successor graph Predictive consults).
  const pipeline::ExecutionTrace *Profile = nullptr;
};

struct LoadResult {
  unsigned Clients = 0;
  unsigned Failures = 0;         ///< Clients that could not run at all.
  unsigned OutputMismatches = 0; ///< Ran, but diverged from the reference.
  double WallSeconds = 0;        ///< Whole wave, dial to last exit.
  uint64_t Fetches = 0;          ///< Latency samples (= round-trip fetches).
  std::vector<double> LatencySorted; ///< Per-fetch seconds, ascending.
  // Client-side transport totals across the wave:
  uint64_t RoundTrips = 0;
  uint64_t BatchRoundTrips = 0;
  uint64_t Dials = 0;
  uint64_t StagedServes = 0;
  uint64_t BytesSent = 0;
  uint64_t BytesReceived = 0;

  double p50() const { return percentile(LatencySorted, 0.50); }
  double p95() const { return percentile(LatencySorted, 0.95); }
  double p99() const { return percentile(LatencySorted, 0.99); }
};

/// Runs \p Opts.Clients concurrent socket-backed VM clients against the
/// server at Host:Port and checks each one's program output against
/// \p ExpectedOutput / \p ExpectedExit. Every client failure mode is
/// counted, never thrown: a client that cannot connect, load, or run
/// increments Failures; one that runs but diverges increments
/// OutputMismatches.
inline LoadResult runSocketClients(const LoadOptions &Opts,
                                   const std::string &ExpectedOutput,
                                   int32_t ExpectedExit) {
  LoadResult R;
  R.Clients = Opts.Clients;

  std::atomic<unsigned> Failures{0}, Mismatches{0};
  std::atomic<uint64_t> RoundTrips{0}, BatchTrips{0}, Dials{0}, Staged{0},
      Sent{0}, Received{0};
  std::vector<std::vector<double>> PerClient(Opts.Clients);

  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  Threads.reserve(Opts.Clients);
  for (unsigned C = 0; C != Opts.Clients; ++C)
    Threads.emplace_back([&, C] {
      net::SocketOptions SO;
      SO.Host = Opts.Host;
      SO.Port = Opts.Port;
      Result<std::unique_ptr<net::SocketFrameSource>> Src =
          net::SocketFrameSource::connect(SO);
      if (!Src) {
        Failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      net::SocketFrameSource *Sock = Src.value().get();
      auto Timed = std::make_unique<TimingFrameSource>(Src.take());
      TimingFrameSource *Timer = Timed.get();

      store::StoreOptions StOpts;
      StOpts.CacheBudgetBytes = Opts.CacheBudgetBytes;
      StOpts.Retry = Opts.Retry;
      StOpts.Retry.RealTime = true;
      Result<std::unique_ptr<store::CodeStore>> St =
          store::CodeStore::tryFromSource(std::move(Timed), StOpts);
      if (!St) {
        Failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      store::CodeStore &Store = *St.value();
      if (Opts.Profile)
        Store.applyAccessProfile(*Opts.Profile);

      if (Opts.PrefetchAll) {
        // One coalesced wave: the socket source turns this into a
        // single GetBatch round trip (plus the faults that follow,
        // served from staging).
        std::vector<uint32_t> All(Store.functionCount());
        for (uint32_t I = 0; I != Store.functionCount(); ++I)
          All[I] = I;
        ThreadPool Pool(2);
        Store.prefetch(All, Pool);
        Pool.wait();
      }

      vm::RunResult Run;
      if (Opts.Predictive) {
        ThreadPool Pool(2);
        Run = store::runFromStore(Store, {}, &Pool);
      } else {
        Run = store::runFromStore(Store);
      }
      if (!Run.Ok)
        Failures.fetch_add(1, std::memory_order_relaxed);
      else if (Run.Output != ExpectedOutput || Run.ExitCode != ExpectedExit)
        Mismatches.fetch_add(1, std::memory_order_relaxed);

      PerClient[C] = Timer->takeSamples();
      net::ClientStats CS = Sock->stats();
      RoundTrips.fetch_add(CS.RoundTrips, std::memory_order_relaxed);
      BatchTrips.fetch_add(CS.BatchRoundTrips, std::memory_order_relaxed);
      Dials.fetch_add(CS.Dials, std::memory_order_relaxed);
      Staged.fetch_add(CS.StagedServes, std::memory_order_relaxed);
      Sent.fetch_add(CS.BytesSent, std::memory_order_relaxed);
      Received.fetch_add(CS.BytesReceived, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
  R.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();

  R.Failures = Failures.load();
  R.OutputMismatches = Mismatches.load();
  R.RoundTrips = RoundTrips.load();
  R.BatchRoundTrips = BatchTrips.load();
  R.Dials = Dials.load();
  R.StagedServes = Staged.load();
  R.BytesSent = Sent.load();
  R.BytesReceived = Received.load();
  for (std::vector<double> &S : PerClient) {
    R.Fetches += S.size();
    R.LatencySorted.insert(R.LatencySorted.end(), S.begin(), S.end());
  }
  std::sort(R.LatencySorted.begin(), R.LatencySorted.end());
  return R;
}

} // namespace harness
} // namespace ccomp

#endif // CCOMP_HARNESS_NETLOAD_H
