//===- net/SocketFrameSource.h - FrameSource over real TCP -----*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the frame service: a store::FrameSource whose
/// frames live behind a net::FrameServer. Because the FrameSource seam
/// is where the CodeStore stops caring about transport, everything
/// above this class — retry masking, typed errors, single-flight,
/// shared registries, tiered execution — runs unchanged over a real
/// network; this file only turns fetchFrame into a deadline-bounded
/// TCP round trip.
///
/// What it adds over the simulated remote:
///
///   - Connection pooling: round trips check a connection out of a
///     small idle pool and return it after; concurrent faults dial
///     extra connections on demand (each handshaking afresh) rather
///     than serializing behind one socket.
///   - Handshake identity: the Welcome message carries the server
///     container's manifest content hash, so contentHash() answers
///     from the handshake without fetching a byte — the shared-registry
///     trust check (claimed manifest hash vs server-computed hash)
///     works end-to-end over the network, and every *re*-dial verifies
///     the server still serves the same container.
///   - Request coalescing: prefetchHint(ids) fetches every wanted
///     frame in ONE GetBatch round trip and stages the bytes; the
///     store's subsequent per-frame fetches are served from the staging
///     area with no further network traffic. Hundreds of frames cost
///     one latency instead of hundreds.
///
/// Failures are typed per the FetchErrorKind taxonomy: a recv deadline
/// maps to Timeout, a dropped connection to ShortRead, a malformed or
/// oversized reply to Corrupt (all transient — fetchWithRetry masks
/// them, and RetryPolicy::RealTime bounds the storm with a wall-clock
/// deadline), a server-side NotFound/Io crosses the wire permanent. A
/// fetch's VirtualSeconds is the measured wall time of the round trip,
/// so StoreStats::FetchVirtualNanos reads as real time for this source.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_NET_SOCKETFRAMESOURCE_H
#define CCOMP_NET_SOCKETFRAMESOURCE_H

#include "net/Message.h"
#include "net/Socket.h"
#include "store/FrameSource.h"
#include "support/Error.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ccomp {
namespace net {

struct SocketOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  unsigned ConnectTimeoutMillis = 5'000;
  /// Deadline for each send/recv of one round trip.
  unsigned IoTimeoutMillis = 10'000;
  /// Idle connections kept for reuse; extra ones close at check-in.
  unsigned MaxPooledConnections = 2;
};

/// Client-side transport counters (independent of the store's fetch
/// stats: these count wire traffic, including staged-batch savings).
struct ClientStats {
  uint64_t RoundTrips = 0;      ///< Request/reply exchanges, batches included.
  uint64_t BatchRoundTrips = 0; ///< GetBatch exchanges alone.
  uint64_t Dials = 0;           ///< Connections established (incl. redials).
  uint64_t BytesSent = 0;
  uint64_t BytesReceived = 0;
  uint64_t StagedServes = 0;    ///< Fetches answered from batch staging.
  uint64_t TransportErrors = 0; ///< Round trips that failed typed.
};

class SocketFrameSource final : public store::FrameSource {
public:
  /// Dials the server once, handshakes, and learns the container's
  /// identity (hash, chain spec, frame census). Fails typed if the
  /// server is unreachable or speaks a different protocol.
  static Result<std::unique_ptr<SocketFrameSource>>
  connect(SocketOptions Opts);

  ~SocketFrameSource() override;

  const char *kind() const override { return "socket"; }
  const std::string &chainSpec() const override { return Spec; }
  uint32_t functionFrameCount() const override { return FrameCount; }
  size_t frameBytes() const override { return TotalFrameBytes; }

  store::FetchResult fetchFrame(uint32_t Id) override;
  store::FetchResult fetchManifest() override;

  /// Answered from the handshake — no fetching, no trust in the
  /// manifest claim: the server computed this hash from the frame
  /// bytes it actually serves.
  bool contentHash(uint64_t &H) override {
    H = Hash;
    return true;
  }

  /// One GetBatch round trip for every id not already staged; results
  /// are staged and served by later fetchFrame calls for free. Batch
  /// failures are soft: ids the server could not produce simply stay
  /// unstaged and fault through the usual retried path.
  void prefetchHint(const std::vector<uint32_t> &FrameIds) override;

  ClientStats stats() const;
  const SocketOptions &options() const { return Opts; }

private:
  explicit SocketFrameSource(SocketOptions O) : Opts(std::move(O)) {}

  /// Dials + handshakes one connection; verifies the container hash on
  /// redials. On success the socket is ready for requests.
  Result<Socket> dial(bool FirstHandshake);
  /// Checks a pooled connection out (dialing if the pool is empty).
  Result<Socket> checkout();
  void checkin(Socket S);

  /// One request/reply exchange. On success \p Reply holds the parsed
  /// message and the connection returns to the pool. On failure \p
  /// Fail is a typed FetchResult and the connection is dropped (unless
  /// the failure was a well-formed ErrorReply, which leaves the stream
  /// healthy and pooled).
  bool exchange(const std::vector<uint8_t> &Request, Message &Reply,
                store::FetchResult &Fail);

  SocketOptions Opts;
  std::string Spec;
  uint32_t FrameCount = 0;
  uint64_t TotalFrameBytes = 0;
  uint64_t Hash = 0;

  std::mutex PoolMu;
  std::vector<Socket> Pool;

  std::mutex StageMu;
  std::unordered_map<uint32_t, std::vector<uint8_t>> Staged;

  struct Counters {
    std::atomic<uint64_t> RoundTrips{0};
    std::atomic<uint64_t> BatchRoundTrips{0};
    std::atomic<uint64_t> Dials{0};
    std::atomic<uint64_t> BytesSent{0};
    std::atomic<uint64_t> BytesReceived{0};
    std::atomic<uint64_t> StagedServes{0};
    std::atomic<uint64_t> TransportErrors{0};
  };
  mutable Counters Cnt;
};

} // namespace net
} // namespace ccomp

#endif // CCOMP_NET_SOCKETFRAMESOURCE_H
