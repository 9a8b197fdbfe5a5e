//===- tests/test_net_store.cpp - Frame service over real TCP ------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The network subsystem's promises, checked over real loopback sockets:
// the wire codec round-trips every message type and rejects malformed
// input typed on both ends; store-backed execution through a
// net::SocketFrameSource is byte-identical to the local store across
// chains, page granularities, and cache budgets; a batched prefetch is
// exactly ONE round trip (asserted from the server's own counters); a
// server killed mid-run yields typed FetchErrorKinds quickly — never a
// hang (the ctest TIMEOUT is the hard guard); the handshake's content
// hash carries shared-registry trust end-to-end over the network; and
// RetryPolicy::RealTime turns backoff into real sleeps bounded by a
// wall-clock deadline.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "net/FrameServer.h"
#include "net/Message.h"
#include "net/Socket.h"
#include "net/SocketFrameSource.h"
#include "store/CodeStore.h"
#include "store/FrameRegistry.h"
#include "store/FrameSource.h"
#include "store/Resolver.h"
#include "store/Trace.h"
#include "support/ThreadPool.h"
#include "vm/Machine.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

using namespace ccomp;
using namespace ccomp::store;
using namespace ccomp::test;

namespace {

std::vector<uint8_t> buildImage(const vm::VMProgram &P,
                                const std::string &Chain,
                                size_t PageTargetBytes = 0) {
  StoreOptions Opts;
  Opts.PageTargetBytes = PageTargetBytes;
  std::string Err;
  std::unique_ptr<CodeStore> S = CodeStore::build(P, Chain, Opts, Err);
  EXPECT_NE(S, nullptr) << Chain << ": " << Err;
  return S->save();
}

std::unique_ptr<net::FrameServer>
startServer(const std::vector<uint8_t> &Image) {
  Result<std::unique_ptr<LocalFrameSource>> Src =
      LocalFrameSource::fromContainerBytes(Image);
  EXPECT_TRUE(Src.ok()) << (Src.ok() ? "" : Src.error().message());
  if (!Src.ok())
    return nullptr;
  Result<std::unique_ptr<net::FrameServer>> Srv =
      net::FrameServer::start(Src.take(), net::ServerOptions());
  EXPECT_TRUE(Srv.ok()) << (Srv.ok() ? "" : Srv.error().message());
  return Srv.ok() ? Srv.take() : nullptr;
}

std::unique_ptr<net::SocketFrameSource> connectClient(uint16_t Port) {
  net::SocketOptions SO;
  SO.Port = Port;
  Result<std::unique_ptr<net::SocketFrameSource>> Src =
      net::SocketFrameSource::connect(SO);
  EXPECT_TRUE(Src.ok()) << (Src.ok() ? "" : Src.error().message());
  return Src.ok() ? Src.take() : nullptr;
}

/// The payload of an encoded message: everything after the length
/// prefix, which is what tryParseMessage consumes.
std::vector<uint8_t> body(const std::vector<uint8_t> &Wire) {
  EXPECT_GE(Wire.size(), net::LengthPrefixBytes);
  return std::vector<uint8_t>(Wire.begin() + net::LengthPrefixBytes,
                              Wire.end());
}

//===----------------------------------------------------------------------===//
// Wire codec
//===----------------------------------------------------------------------===//

TEST(WireCodec, SizeHelpersMatchEncodedSizes) {
  EXPECT_EQ(net::encodeHello().size(), net::wireSizeHello());
  EXPECT_EQ(net::encodeWelcome(0x1234, "brisc+flate", 42, 9001).size(),
            net::wireSizeWelcome("brisc+flate"));
  EXPECT_EQ(net::encodeGetFrame(7).size(), net::wireSizeGetFrame());
  for (size_t N : {size_t(0), size_t(1), size_t(200)}) {
    std::vector<uint32_t> Ids(N, 5);
    EXPECT_EQ(net::encodeGetBatch(Ids).size(), net::wireSizeGetBatch(N));
  }
  std::vector<uint8_t> Payload(300, 0xAB);
  EXPECT_EQ(net::encodeFrameData(3, Payload).size(),
            net::wireSizeFrameData(Payload.size()));
  EXPECT_EQ(net::encodeErrorReply(1, FetchErrorKind::Timeout, "slow").size(),
            net::wireSizeErrorReply("slow"));
  // One fetch's full wire cost: request plus framed reply. This is the
  // quantity RemoteOptions::WireFraming charges, so the identity below
  // is what keeps the sim and a real server byte-for-byte agreed.
  EXPECT_EQ(net::wireSizeFetch(Payload.size()),
            net::encodeGetFrame(3).size() +
                net::encodeFrameData(3, Payload).size());
}

TEST(WireCodec, RoundTripsEveryMessageType) {
  auto Parse = [](const std::vector<uint8_t> &Wire) {
    Result<net::Message> M = net::tryParseMessage(body(Wire));
    EXPECT_TRUE(M.ok()) << (M.ok() ? "" : M.error().message());
    return M.ok() ? M.take() : net::Message();
  };

  net::Message M = Parse(net::encodeHello());
  EXPECT_EQ(M.Type, net::MsgType::Hello);
  EXPECT_EQ(M.Version, net::WireVersion);

  M = Parse(net::encodeWelcome(0xDEADBEEFCAFE, "vm-compact+flate", 17, 4242));
  EXPECT_EQ(M.Type, net::MsgType::Welcome);
  EXPECT_EQ(M.ContentHash, 0xDEADBEEFCAFEull);
  EXPECT_EQ(M.ChainSpec, "vm-compact+flate");
  EXPECT_EQ(M.FrameCount, 17u);
  EXPECT_EQ(M.FrameBytes, 4242u);

  M = Parse(net::encodeGetFrame(ManifestFrameId));
  EXPECT_EQ(M.Type, net::MsgType::GetFrame);
  EXPECT_EQ(M.Id, ManifestFrameId);

  std::vector<uint32_t> Ids = {0, 9, 3, 0xFFFF0000};
  M = Parse(net::encodeGetBatch(Ids));
  EXPECT_EQ(M.Type, net::MsgType::GetBatch);
  EXPECT_EQ(M.Ids, Ids);

  std::vector<uint8_t> Payload = {1, 2, 3, 0, 255};
  M = Parse(net::encodeFrameData(6, Payload));
  EXPECT_EQ(M.Type, net::MsgType::FrameData);
  EXPECT_EQ(M.Id, 6u);
  EXPECT_EQ(M.Bytes, Payload);

  std::vector<net::BatchEntry> Es(2);
  Es[0].Id = 4;
  Es[0].Ok = true;
  Es[0].Bytes = {9, 8, 7};
  Es[1].Id = 5;
  Es[1].Ok = false;
  Es[1].Err = FetchErrorKind::NotFound;
  Es[1].Msg = "no frame 5";
  M = Parse(net::encodeBatchData(Es));
  EXPECT_EQ(M.Type, net::MsgType::BatchData);
  ASSERT_EQ(M.Entries.size(), 2u);
  EXPECT_TRUE(M.Entries[0].Ok);
  EXPECT_EQ(M.Entries[0].Id, 4u);
  EXPECT_EQ(M.Entries[0].Bytes, Es[0].Bytes);
  EXPECT_FALSE(M.Entries[1].Ok);
  EXPECT_EQ(M.Entries[1].Err, FetchErrorKind::NotFound);
  EXPECT_EQ(M.Entries[1].Msg, "no frame 5");

  M = Parse(net::encodeErrorReply(11, FetchErrorKind::Corrupt, "bad csum"));
  EXPECT_EQ(M.Type, net::MsgType::ErrorReply);
  EXPECT_EQ(M.Id, 11u);
  EXPECT_EQ(M.Err, FetchErrorKind::Corrupt);
  EXPECT_EQ(M.Msg, "bad csum");
}

TEST(WireCodec, MalformedPayloadsRejectedTyped) {
  auto Rejects = [](std::vector<uint8_t> Payload, const char *Why) {
    Result<net::Message> M = net::tryParseMessage(Payload);
    EXPECT_FALSE(M.ok()) << Why;
    if (!M.ok()) {
      EXPECT_FALSE(M.error().message().empty()) << Why;
    }
  };

  Rejects({}, "empty payload");
  Rejects({0}, "message type 0");
  Rejects({8}, "message type past ErrorReply");
  Rejects({200}, "garbage message type");

  std::vector<uint8_t> Hello = body(net::encodeHello());
  Hello[1] ^= 0xFF; // First magic byte.
  Rejects(Hello, "bad magic");

  Hello = body(net::encodeHello());
  Hello[5] = net::WireVersion + 1;
  Rejects(Hello, "unsupported version");

  std::vector<uint8_t> Welcome =
      body(net::encodeWelcome(1, "flate", 2, 3));
  Welcome.pop_back();
  Rejects(Welcome, "truncated Welcome");

  std::vector<uint8_t> Get = body(net::encodeGetFrame(1));
  Get.push_back(0);
  Rejects(Get, "trailing bytes");

  // Lying counts/lengths: the parser must reject them *before* any
  // count-driven allocation.
  Rejects({static_cast<uint8_t>(net::MsgType::GetBatch), 0x7F},
          "GetBatch count overruns payload");
  Rejects({static_cast<uint8_t>(net::MsgType::BatchData), 0x7F},
          "BatchData count overruns payload");
  Rejects({static_cast<uint8_t>(net::MsgType::FrameData), 1, 0, 0, 0, 0x7F},
          "FrameData length overruns payload");
  // ErrorReply with a fetch-error kind past the enum.
  Rejects({static_cast<uint8_t>(net::MsgType::ErrorReply), 1, 0, 0, 0, 9, 0},
          "unknown fetch-error kind");
}

//===----------------------------------------------------------------------===//
// Handshake identity
//===----------------------------------------------------------------------===//

TEST(NetStore, HandshakeCarriesContainerIdentity) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  std::unique_ptr<net::FrameServer> Server = startServer(Image);
  ASSERT_NE(Server, nullptr);

  std::unique_ptr<net::SocketFrameSource> Sock = connectClient(Server->port());
  ASSERT_NE(Sock, nullptr);

  // The handshake told the client everything a source must know — no
  // fetches have happened yet.
  EXPECT_EQ(Sock->chainSpec(), "flate");
  EXPECT_EQ(Sock->functionFrameCount(),
            Server->source().functionFrameCount());
  EXPECT_EQ(Sock->frameBytes(), Server->source().frameBytes());
  uint64_t H = 0;
  EXPECT_TRUE(Sock->contentHash(H));
  EXPECT_EQ(H, Server->contentHash());
  EXPECT_EQ(Server->stats().Requests, 0u);

  // Out-of-range ids fail NotFound on the client side, with no round
  // trip wasted on a frame the handshake already says cannot exist.
  uint64_t TripsBefore = Sock->stats().RoundTrips;
  FetchResult R = Sock->fetchFrame(Sock->functionFrameCount() + 100);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, FetchErrorKind::NotFound);
  EXPECT_EQ(Sock->stats().RoundTrips, TripsBefore);

  // The manifest and a real frame do cross the wire.
  EXPECT_TRUE(Sock->fetchManifest().Ok);
  EXPECT_TRUE(Sock->fetchFrame(0).Ok);
  EXPECT_EQ(Sock->stats().RoundTrips, TripsBefore + 2);
  EXPECT_EQ(Server->stats().Requests, 2u);
}

//===----------------------------------------------------------------------===//
// Differential execution: socket vs local
//===----------------------------------------------------------------------===//

TEST(NetStore, LoopbackExecutionMatchesLocalAcrossChainsPagesBudgets) {
  vm::VMProgram P = buildVM(syntheticSource(12));
  vm::RunResult Eager = vm::Machine(P).run();
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  const char *Chains[] = {"flate", "vm-compact", "brisc+flate"};
  for (const char *Chain : Chains) {
    for (size_t PageTarget : {size_t(0), size_t(48)}) {
      std::vector<uint8_t> Image = buildImage(P, Chain, PageTarget);
      std::unique_ptr<net::FrameServer> Server = startServer(Image);
      ASSERT_NE(Server, nullptr);

      for (size_t Budget : {size_t(1), size_t(1) << 20}) {
        SCOPED_TRACE(std::string(Chain) + " pages=" +
                     std::to_string(PageTarget) + " budget=" +
                     std::to_string(Budget));
        // The reference: the same container through a local source.
        StoreOptions Opts;
        Opts.CacheBudgetBytes = Budget;
        Opts.Retry.RealTime = true;
        Result<std::unique_ptr<CodeStore>> Ref =
            CodeStore::tryLoad(Image, Opts);
        ASSERT_TRUE(Ref.ok()) << Ref.error().message();
        vm::RunResult LocalRun = runFromStore(*Ref.value());

        std::unique_ptr<net::SocketFrameSource> Sock =
            connectClient(Server->port());
        ASSERT_NE(Sock, nullptr);
        Result<std::unique_ptr<CodeStore>> St =
            CodeStore::tryFromSource(std::move(Sock), Opts);
        ASSERT_TRUE(St.ok()) << St.error().message();
        vm::RunResult NetRun = runFromStore(*St.value());

        ASSERT_TRUE(LocalRun.Ok) << LocalRun.Trap;
        ASSERT_TRUE(NetRun.Ok) << NetRun.Trap;
        EXPECT_EQ(NetRun.Output, Eager.Output);
        EXPECT_EQ(NetRun.ExitCode, Eager.ExitCode);
        EXPECT_EQ(NetRun.Output, LocalRun.Output);
        EXPECT_EQ(NetRun.ExitCode, LocalRun.ExitCode);
        EXPECT_EQ(NetRun.Steps, LocalRun.Steps);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Batched prefetch economics
//===----------------------------------------------------------------------===//

TEST(NetStore, BatchedPrefetchIsOneRoundTrip) {
  vm::VMProgram P = buildVM(syntheticSource(16));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  std::unique_ptr<net::FrameServer> Server = startServer(Image);
  ASSERT_NE(Server, nullptr);

  std::unique_ptr<net::SocketFrameSource> Sock = connectClient(Server->port());
  ASSERT_NE(Sock, nullptr);
  net::SocketFrameSource *Raw = Sock.get();

  StoreOptions Opts;
  Opts.CacheBudgetBytes = 64u << 20; // Nothing re-faults.
  Opts.Retry.RealTime = true;
  Result<std::unique_ptr<CodeStore>> St =
      CodeStore::tryFromSource(std::move(Sock), Opts);
  ASSERT_TRUE(St.ok()) << St.error().message();
  CodeStore &Store = *St.value();

  uint64_t ReqBefore = Server->stats().Requests;
  uint64_t BatchBefore = Server->stats().Batches;

  std::vector<uint32_t> All(Store.functionCount());
  for (uint32_t I = 0; I != Store.functionCount(); ++I)
    All[I] = I;
  ThreadPool Pool(4);
  Store.prefetch(All, Pool);
  Pool.wait();

  // The whole working set crossed the wire in exactly ONE request — the
  // server's own counter is the witness, not client bookkeeping.
  net::ServerStats SS = Server->stats();
  EXPECT_EQ(SS.Requests - ReqBefore, 1u);
  EXPECT_EQ(SS.Batches - BatchBefore, 1u);
  net::ClientStats CS = Raw->stats();
  EXPECT_EQ(CS.BatchRoundTrips, 1u);
  EXPECT_EQ(CS.StagedServes, Store.frameCount());

  // And the prefetched store still executes correctly — with no
  // further wire traffic at all.
  vm::RunResult Eager = vm::Machine(P).run();
  vm::RunResult R = runFromStore(Store);
  ASSERT_TRUE(R.Ok) << R.Trap;
  EXPECT_EQ(R.Output, Eager.Output);
  EXPECT_EQ(Server->stats().Requests - ReqBefore, 1u);
}

// Trace-driven prefetch over the wire: after a fault, the store warms
// exactly the predicted-next set — one GetBatch whose frame count the
// server's own counters witness, with every predicted frame resident
// afterwards and nothing else fetched.
TEST(NetStore, PredictivePrefetchSendsExactlyThePredictedSet) {
  vm::VMProgram P = buildVM(syntheticSource(16));
  store::TraceRunResult Recorded = store::recordTrace(P);
  ASSERT_TRUE(Recorded.Run.Ok) << Recorded.Run.Trap;
  std::vector<uint8_t> Image = buildImage(P, "flate");
  std::unique_ptr<net::FrameServer> Server = startServer(Image);
  ASSERT_NE(Server, nullptr);

  std::unique_ptr<net::SocketFrameSource> Sock = connectClient(Server->port());
  ASSERT_NE(Sock, nullptr);
  net::SocketFrameSource *Raw = Sock.get();

  StoreOptions Opts;
  Opts.CacheBudgetBytes = 64u << 20;
  Opts.Retry.RealTime = true;
  Result<std::unique_ptr<CodeStore>> St =
      CodeStore::tryFromSource(std::move(Sock), Opts);
  ASSERT_TRUE(St.ok()) << St.error().message();
  CodeStore &Store = *St.value();
  Store.applyAccessProfile(Recorded.Trace);
  ASSERT_TRUE(Store.hasAccessProfile());

  // Fault the frame the trace starts in, then snapshot its predictions
  // — the set the prefetch is REQUIRED to send, no more, no less.
  ASSERT_FALSE(Recorded.Trace.Events.empty());
  uint32_t Fn = Recorded.Trace.Events[0].Fn;
  ASSERT_TRUE(Store.fault(Fn).ok());
  std::vector<uint32_t> Expect;
  for (uint32_t Id : Store.predictedSuccessors(Fn, ~0u)) {
    if (Store.isResident(Id))
      continue;
    Expect.push_back(Id);
    if (Expect.size() == CodeStore::DefaultPredictions)
      break;
  }
  ASSERT_FALSE(Expect.empty()) << "the trace must predict something";

  uint64_t ReqBefore = Server->stats().Requests;
  uint64_t BatchBefore = Server->stats().Batches;
  uint64_t ServedBefore = Server->stats().FramesServed;
  uint64_t StagedBefore = Raw->stats().StagedServes;
  {
    ThreadPool Pool(4);
    Store.prefetchPredicted(Fn, 0, Pool);
    Pool.wait();
  }

  net::ServerStats SS = Server->stats();
  EXPECT_EQ(SS.Requests - ReqBefore, 1u) << "one GetBatch, nothing else";
  EXPECT_EQ(SS.Batches - BatchBefore, 1u);
  EXPECT_EQ(SS.FramesServed - ServedBefore, Expect.size())
      << "the batch carries exactly the predicted-next set";
  EXPECT_EQ(Raw->stats().StagedServes - StagedBefore, Expect.size())
      << "every warm was served from staging, not its own round trip";

  // The predicted frames are now resident; unpredicted ones are not.
  for (uint32_t Id : Expect)
    EXPECT_TRUE(Store.isResident(Id)) << Id;
  for (uint32_t Id = 0; Id != Store.functionCount(); ++Id) {
    bool Predicted =
        std::find(Expect.begin(), Expect.end(), Id) != Expect.end();
    if (!Predicted && Id != Fn)
      EXPECT_FALSE(Store.isResident(Id)) << Id << ": over-fetched";
  }
}

// The admission clamp holds over the wire too: on a 1-byte budget a
// predictive prefetch may ship at most the one frame the cache will
// actually keep — no over-fetch bytes crossing the socket.
TEST(NetStore, PredictivePrefetchClampsOnTinyBudget) {
  vm::VMProgram P = buildVM(syntheticSource(16));
  store::TraceRunResult Recorded = store::recordTrace(P);
  ASSERT_TRUE(Recorded.Run.Ok) << Recorded.Run.Trap;
  std::vector<uint8_t> Image = buildImage(P, "flate");
  std::unique_ptr<net::FrameServer> Server = startServer(Image);
  ASSERT_NE(Server, nullptr);

  std::unique_ptr<net::SocketFrameSource> Sock = connectClient(Server->port());
  ASSERT_NE(Sock, nullptr);

  StoreOptions Opts;
  Opts.Shards = 1;
  Opts.CacheBudgetBytes = 1;
  Opts.Retry.RealTime = true;
  Result<std::unique_ptr<CodeStore>> St =
      CodeStore::tryFromSource(std::move(Sock), Opts);
  ASSERT_TRUE(St.ok()) << St.error().message();
  CodeStore &Store = *St.value();
  Store.applyAccessProfile(Recorded.Trace);

  ASSERT_FALSE(Recorded.Trace.Events.empty());
  uint32_t Fn = Recorded.Trace.Events[0].Fn;
  ASSERT_TRUE(Store.fault(Fn).ok());

  uint64_t ServedBefore = Server->stats().FramesServed;
  {
    ThreadPool Pool(4);
    Store.prefetchPredicted(Fn, 0, Pool);
    Pool.wait();
  }
  EXPECT_LE(Server->stats().FramesServed - ServedBefore, 1u)
      << "a 1-byte budget admits one frame; the batch must shrink to it";
  EXPECT_LE(Store.stats().PrefetchDecodes, 1u);
}

//===----------------------------------------------------------------------===//
// Server death: typed errors, never hangs
//===----------------------------------------------------------------------===//

TEST(NetStore, ServerStoppedMidRunYieldsTypedErrorsNotHangs) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  std::unique_ptr<net::FrameServer> Server = startServer(Image);
  ASSERT_NE(Server, nullptr);

  StoreOptions Opts;
  Opts.CacheBudgetBytes = 1; // Keep almost nothing resident.
  Opts.Retry.MaxAttempts = 2;
  Opts.Retry.BaseBackoffSeconds = 0.01;
  Opts.Retry.MaxBackoffSeconds = 0.02;
  Opts.Retry.RealTime = true;
  Opts.Retry.DeadlineSeconds = 5.0;
  std::unique_ptr<net::SocketFrameSource> Sock = connectClient(Server->port());
  ASSERT_NE(Sock, nullptr);
  Result<std::unique_ptr<CodeStore>> St =
      CodeStore::tryFromSource(std::move(Sock), Opts);
  ASSERT_TRUE(St.ok()) << St.error().message();
  CodeStore &Store = *St.value();

  ASSERT_TRUE(Store.fault(0).ok()); // The server was alive...
  Server->stop();                   // ...and now it is not.

  // Every fault against the dead server must come back as a typed
  // error, promptly: redials fail fast on loopback and the retry
  // policy's sleeps are milliseconds. The ctest TIMEOUT is the hard
  // no-hang guard; the wall check below catches soft regressions.
  auto Start = std::chrono::steady_clock::now();
  for (uint32_t Id = 1; Id != Store.functionCount(); ++Id) {
    Result<std::shared_ptr<const vm::VMFunction>> R = Store.fault(Id);
    EXPECT_FALSE(R.ok()) << "function " << Id << " after server stop";
    if (!R.ok()) {
      EXPECT_FALSE(R.error().message().empty());
    }
  }
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  EXPECT_LT(Wall, 30.0);
  StoreStats SS = Store.stats();
  EXPECT_GE(SS.FetchFailures, Store.functionCount() - 1u);
}

//===----------------------------------------------------------------------===//
// Malformed traffic against a real server
//===----------------------------------------------------------------------===//

/// Reads and parses one framed reply off a raw test socket.
Result<net::Message> readReply(net::Socket &S) {
  return tryDecode([&] {
    uint8_t Prefix[4];
    std::string Err;
    if (S.recvAll(Prefix, 4, 5'000, Err) != net::IoStatus::Ok)
      decodeFail("no reply prefix: " + Err);
    uint32_t Len = static_cast<uint32_t>(Prefix[0]) |
                   (static_cast<uint32_t>(Prefix[1]) << 8) |
                   (static_cast<uint32_t>(Prefix[2]) << 16) |
                   (static_cast<uint32_t>(Prefix[3]) << 24);
    if (Len == 0 || Len > net::MaxMessageBytes)
      decodeFail("bad reply length");
    std::vector<uint8_t> Payload(Len);
    if (S.recvAll(Payload.data(), Len, 5'000, Err) != net::IoStatus::Ok)
      decodeFail("short reply: " + Err);
    Result<net::Message> M = net::tryParseMessage(Payload);
    if (!M.ok())
      decodeFail(M.error().message());
    return M.take();
  });
}

net::IoStatus sendRaw(net::Socket &S, const std::vector<uint8_t> &Bytes) {
  std::string Err;
  return S.sendAll(Bytes.data(), Bytes.size(), 5'000, Err);
}

TEST(NetStore, MalformedRequestsGetTypedRepliesAndServerSurvives) {
  vm::VMProgram P = buildVM(syntheticSource(4));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  std::unique_ptr<net::FrameServer> Server = startServer(Image);
  ASSERT_NE(Server, nullptr);

  // A handshaken connection that then talks garbage: the server answers
  // with a typed Corrupt ErrorReply, then closes — framing past a
  // malformed body cannot be trusted.
  {
    Result<net::Socket> C =
        net::Socket::connectTo("127.0.0.1", Server->port(), 5'000);
    ASSERT_TRUE(C.ok()) << C.error().message();
    net::Socket S = C.take();
    ASSERT_EQ(sendRaw(S, net::encodeHello()), net::IoStatus::Ok);
    Result<net::Message> Welcome = readReply(S);
    ASSERT_TRUE(Welcome.ok()) << Welcome.error().message();
    EXPECT_EQ(Welcome.value().Type, net::MsgType::Welcome);

    ASSERT_EQ(sendRaw(S, {3, 0, 0, 0, 0xFF, 0xEE, 0xDD}),
              net::IoStatus::Ok); // Length 3, garbage body.
    Result<net::Message> Reply = readReply(S);
    ASSERT_TRUE(Reply.ok()) << Reply.error().message();
    EXPECT_EQ(Reply.value().Type, net::MsgType::ErrorReply);
    EXPECT_EQ(Reply.value().Err, FetchErrorKind::Corrupt);

    uint8_t Byte;
    std::string Err;
    EXPECT_EQ(S.recvAll(&Byte, 1, 5'000, Err), net::IoStatus::Closed)
        << "server must close after a protocol violation";
  }

  // An oversized length prefix is rejected before any allocation, with
  // the same typed reply.
  {
    Result<net::Socket> C =
        net::Socket::connectTo("127.0.0.1", Server->port(), 5'000);
    ASSERT_TRUE(C.ok()) << C.error().message();
    net::Socket S = C.take();
    ASSERT_EQ(sendRaw(S, {0xFF, 0xFF, 0xFF, 0xFF}), net::IoStatus::Ok);
    Result<net::Message> Reply = readReply(S);
    ASSERT_TRUE(Reply.ok()) << Reply.error().message();
    EXPECT_EQ(Reply.value().Type, net::MsgType::ErrorReply);
    EXPECT_EQ(Reply.value().Err, FetchErrorKind::Corrupt);
  }

  EXPECT_GE(Server->stats().ProtocolErrors, 2u);

  // The abuse is contained to its connections: a well-behaved client
  // connecting afterwards is served normally.
  std::unique_ptr<net::SocketFrameSource> Sock = connectClient(Server->port());
  ASSERT_NE(Sock, nullptr);
  EXPECT_TRUE(Sock->fetchFrame(0).Ok);
}

//===----------------------------------------------------------------------===//
// Malformed replies against a real client
//===----------------------------------------------------------------------===//

/// A scripted fake server: per accepted connection, answers the Hello
/// handshake properly and then replies to the first request with the
/// next scripted byte string (raw, exactly as given) before closing.
class ScriptedServer {
public:
  ScriptedServer(uint64_t Hash, std::vector<std::vector<uint8_t>> Script)
      : Script(std::move(Script)) {
    Result<net::Listener> L = net::Listener::listenOn("127.0.0.1", 0);
    EXPECT_TRUE(L.ok()) << (L.ok() ? "" : L.error().message());
    Listen = L.take();
    Welcome = net::encodeWelcome(Hash, "flate", 4, 400);
    Serve = std::thread([this] { run(); });
  }
  ~ScriptedServer() {
    Listen.close();
    if (Serve.joinable())
      Serve.join();
  }

  uint16_t port() const { return Listen.port(); }

private:
  void run() {
    std::string Err;
    for (size_t I = 0; I < Script.size();) {
      net::Socket C = Listen.accept(5'000, Err);
      if (!C.valid())
        return; // Listener closed (test over) or accept timed out.
      std::vector<uint8_t> Hello(net::wireSizeHello());
      if (C.recvAll(Hello.data(), Hello.size(), 5'000, Err) !=
          net::IoStatus::Ok)
        continue;
      if (C.sendAll(Welcome.data(), Welcome.size(), 5'000, Err) !=
          net::IoStatus::Ok)
        continue;
      // One request, one scripted reply, then hang up.
      std::vector<uint8_t> Req(net::wireSizeGetFrame());
      if (C.recvAll(Req.data(), Req.size(), 5'000, Err) != net::IoStatus::Ok)
        continue;
      (void)C.sendAll(Script[I].data(), Script[I].size(), 5'000, Err);
      ++I;
    }
  }

  net::Listener Listen;
  std::vector<uint8_t> Welcome;
  std::vector<std::vector<uint8_t>> Script;
  std::thread Serve;
};

TEST(NetStore, MalformedRepliesRejectedRecoverablyByClient) {
  // Scripted replies, one per client round trip:
  //   1. well-formed frame: 5-byte garbage that parses as nothing.
  //   2. truncated: a prefix promising 100 bytes, then 8 and a close.
  //   3. oversized length prefix.
  //   4. a genuine FrameData — proof the client recovered.
  std::vector<uint8_t> Good =
      net::encodeFrameData(0, std::vector<uint8_t>{1, 2, 3});
  ScriptedServer Fake(0xFEED, {{5, 0, 0, 0, 0xFF, 0xEE, 0xDD, 0xCC, 0xBB},
                               {100, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
                               {0xFF, 0xFF, 0xFF, 0xFF},
                               Good});

  std::unique_ptr<net::SocketFrameSource> Sock = connectClient(Fake.port());
  ASSERT_NE(Sock, nullptr);
  uint64_t H = 0;
  EXPECT_TRUE(Sock->contentHash(H));
  EXPECT_EQ(H, 0xFEEDu);

  FetchResult R = Sock->fetchFrame(0);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, FetchErrorKind::Corrupt) << R.Msg;
  EXPECT_TRUE(isTransient(R.Err));

  R = Sock->fetchFrame(0);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, FetchErrorKind::ShortRead) << R.Msg;
  EXPECT_TRUE(isTransient(R.Err));

  R = Sock->fetchFrame(0);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, FetchErrorKind::Corrupt) << R.Msg;

  // Every failure dropped its connection and the next fetch redialed —
  // the source itself stays usable and the fourth reply goes through.
  R = Sock->fetchFrame(0);
  EXPECT_TRUE(R.Ok) << R.Msg;
  EXPECT_EQ(R.Bytes, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(Sock->stats().TransportErrors, 3u);
  EXPECT_GE(Sock->stats().Dials, 4u);
}

TEST(NetStore, RedialToAChangedContainerFailsTyped) {
  // A server that serves hash A on the first handshake and hash B on
  // the redial: the client must refuse to mix frames across container
  // identities.
  net::Listener Listen;
  {
    Result<net::Listener> L = net::Listener::listenOn("127.0.0.1", 0);
    ASSERT_TRUE(L.ok()) << L.error().message();
    Listen = L.take();
  }
  std::thread Serve([&Listen] {
    std::string Err;
    for (uint64_t Hash : {uint64_t(0xAAAA), uint64_t(0xBBBB)}) {
      net::Socket C = Listen.accept(5'000, Err);
      if (!C.valid())
        return;
      std::vector<uint8_t> Hello(net::wireSizeHello());
      if (C.recvAll(Hello.data(), Hello.size(), 5'000, Err) !=
          net::IoStatus::Ok)
        return;
      std::vector<uint8_t> W = net::encodeWelcome(Hash, "flate", 4, 400);
      (void)C.sendAll(W.data(), W.size(), 5'000, Err);
      // Close immediately: the pooled connection dies, forcing the
      // client's next fetch to redial.
    }
  });

  std::unique_ptr<net::SocketFrameSource> Sock = connectClient(Listen.port());
  ASSERT_NE(Sock, nullptr);

  // First fetch rides the (now dead) pooled handshake connection and
  // fails transient; the retry path would redial.
  FetchResult R = Sock->fetchFrame(0);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(isTransient(R.Err)) << R.Msg;

  // The redial reaches the second Welcome — whose hash no longer
  // matches — and must fail rather than serve frames from a different
  // container under the old identity.
  R = Sock->fetchFrame(0);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Msg.find("hash mismatch"), std::string::npos) << R.Msg;

  Serve.join();
  Listen.close();
}

//===----------------------------------------------------------------------===//
// Shared-registry trust over the network
//===----------------------------------------------------------------------===//

TEST(NetStore, SharedRegistryTrustsHandshakeHashAndDecodesOnce) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::Machine(P).run();
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;
  std::vector<uint8_t> Image = buildImage(P, "brisc+flate");
  std::unique_ptr<net::FrameServer> Server = startServer(Image);
  ASSERT_NE(Server, nullptr);

  RegistryOptions RO;
  RO.CacheBudgetBytes = 64u << 20;
  auto Reg = std::make_shared<FrameRegistry>(RO);

  // Two tenants, two sockets, one server, one shared decode cache.
  // Joining requires a trustworthy content hash; over the network that
  // trust is exactly the handshake (the server computed the hash from
  // the frames it serves), so both joins must succeed.
  auto MakeTenant = [&]() {
    std::unique_ptr<net::SocketFrameSource> Sock =
        connectClient(Server->port());
    EXPECT_NE(Sock, nullptr);
    StoreOptions Opts;
    Opts.SharedRegistry = Reg;
    Opts.Retry.RealTime = true;
    Result<std::unique_ptr<CodeStore>> St =
        CodeStore::tryFromSource(std::move(Sock), Opts);
    EXPECT_TRUE(St.ok()) << (St.ok() ? "" : St.error().message());
    return St.ok() ? St.take() : nullptr;
  };
  std::unique_ptr<CodeStore> A = MakeTenant();
  std::unique_ptr<CodeStore> B = MakeTenant();
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(A->containerHash(), Server->contentHash());

  vm::RunResult RA = runFromStore(*A);
  ASSERT_TRUE(RA.Ok) << RA.Trap;
  EXPECT_EQ(RA.Output, Eager.Output);
  uint64_t DecodesAfterA = Reg->stats().Decodes;
  EXPECT_GT(DecodesAfterA, 0u);

  // Tenant B touches the same working set: every frame is already
  // decoded in the shared registry, so B runs without decoding — or
  // fetching — anything.
  uint64_t ServerReqBefore = Server->stats().Requests;
  vm::RunResult RB = runFromStore(*B);
  ASSERT_TRUE(RB.Ok) << RB.Trap;
  EXPECT_EQ(RB.Output, Eager.Output);
  EXPECT_EQ(Reg->stats().Decodes, DecodesAfterA);
  EXPECT_EQ(Server->stats().Requests, ServerReqBefore);
}

//===----------------------------------------------------------------------===//
// Real-time retry semantics
//===----------------------------------------------------------------------===//

/// Fails every frame fetch with a transient timeout, charging no
/// virtual time (like a real transport that only consumes wall time).
class AlwaysFailing final : public FrameSource {
public:
  const char *kind() const override { return "always-failing"; }
  const std::string &chainSpec() const override { return Spec; }
  uint32_t functionFrameCount() const override { return 1; }
  size_t frameBytes() const override { return 0; }
  FetchResult fetchFrame(uint32_t Id) override {
    ++Attempts;
    if (SleepMillis)
      std::this_thread::sleep_for(std::chrono::milliseconds(SleepMillis));
    return FetchResult::failure(FetchErrorKind::Timeout,
                                "down: frame " + std::to_string(Id));
  }
  FetchResult fetchManifest() override { return fetchFrame(ManifestFrameId); }

  unsigned SleepMillis = 0;
  std::atomic<unsigned> Attempts{0};

private:
  std::string Spec = "flate";
};

TEST(RetryRealTime, BackoffReallySleeps) {
  AlwaysFailing Src;
  RetryPolicy Policy;
  Policy.MaxAttempts = 3;
  Policy.BaseBackoffSeconds = 0.05;
  Policy.BackoffMultiplier = 1.0;
  Policy.MaxBackoffSeconds = 1.0;
  Policy.JitterFraction = 0.0;
  Policy.DeadlineSeconds = 10.0;

  // Default (virtual) mode: the documented never-sleeps behavior.
  FetchMetrics M;
  auto Start = std::chrono::steady_clock::now();
  FetchResult R = fetchWithRetry(Src, 0, Policy, M);
  double VirtualWall = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(M.Attempts, 3u);
  EXPECT_LT(VirtualWall, 0.04) << "virtual backoff must not sleep";
  EXPECT_GE(M.VirtualSeconds, 0.1 - 1e-9) << "but must charge the clock";

  // RealTime: the same two backoffs (2 x 50ms) become real sleeps.
  Policy.RealTime = true;
  FetchMetrics M2;
  Start = std::chrono::steady_clock::now();
  R = fetchWithRetry(Src, 0, Policy, M2);
  double RealWall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(M2.Attempts, 3u);
  EXPECT_GE(RealWall, 0.09) << "real-time backoff must actually sleep";
}

TEST(RetryRealTime, WallClockDeadlineBoundsTheStorm) {
  AlwaysFailing Src;
  Src.SleepMillis = 20; // Each attempt costs real time, no virtual time.
  RetryPolicy Policy;
  Policy.MaxAttempts = 1000;
  Policy.BaseBackoffSeconds = 0.01;
  Policy.BackoffMultiplier = 1.0;
  Policy.JitterFraction = 0.0;
  Policy.RealTime = true;
  Policy.DeadlineSeconds = 0.1;

  FetchMetrics M;
  auto Start = std::chrono::steady_clock::now();
  FetchResult R = fetchWithRetry(Src, 0, Policy, M);
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, FetchErrorKind::Timeout);
  // Without the wall-clock deadline this storm would run all 1000
  // attempts (~30s); the deadline must cut it off around 100ms.
  EXPECT_LT(Wall, 5.0);
  EXPECT_LT(M.Attempts, 100u);
  // A virtual-deadline policy can never fire here (the source charges
  // no virtual time), which is exactly why RealTime exists.
}

//===----------------------------------------------------------------------===//
// Wire framing: sim and socket agree on bytes
//===----------------------------------------------------------------------===//

TEST(NetStore, WireFramingMakesSimChargeRealWireBytes) {
  vm::VMProgram P = buildVM(syntheticSource(5));
  std::vector<uint8_t> Image = buildImage(P, "flate");

  // Measure what one fetch really puts on the wire, both directions.
  std::unique_ptr<net::FrameServer> Server = startServer(Image);
  ASSERT_NE(Server, nullptr);
  std::unique_ptr<net::SocketFrameSource> Sock = connectClient(Server->port());
  ASSERT_NE(Sock, nullptr);
  net::ClientStats Before = Sock->stats();
  FetchResult Real = Sock->fetchFrame(0);
  ASSERT_TRUE(Real.Ok) << Real.Msg;
  net::ClientStats After = Sock->stats();
  uint64_t RealWireBytes = (After.BytesSent - Before.BytesSent) +
                           (After.BytesReceived - Before.BytesReceived);
  EXPECT_EQ(RealWireBytes, net::wireSizeFetch(Real.Bytes.size()));

  // A WireFraming sim over the same container must charge link time
  // for exactly those bytes — the framed size, not the bare payload.
  RemoteOptions RO;
  RO.Link = sim::ethernet10M();
  RO.WireFraming = true;
  Result<std::unique_ptr<LocalFrameSource>> Origin =
      LocalFrameSource::fromContainerBytes(Image);
  ASSERT_TRUE(Origin.ok());
  SimulatedRemoteFrameSource Sim(Origin.take(), RO);
  FetchResult SimFetch = Sim.fetchFrame(0);
  ASSERT_TRUE(SimFetch.Ok);
  EXPECT_EQ(SimFetch.Bytes, Real.Bytes);
  double Expected =
      RO.Link.LatencySeconds + RO.Link.streamSeconds(RealWireBytes);
  EXPECT_DOUBLE_EQ(SimFetch.VirtualSeconds, Expected);

  // And the default stays the old bare-payload accounting.
  RO.WireFraming = false;
  Result<std::unique_ptr<LocalFrameSource>> Origin2 =
      LocalFrameSource::fromContainerBytes(Image);
  ASSERT_TRUE(Origin2.ok());
  SimulatedRemoteFrameSource Bare(Origin2.take(), RO);
  FetchResult BareFetch = Bare.fetchFrame(0);
  ASSERT_TRUE(BareFetch.Ok);
  EXPECT_DOUBLE_EQ(BareFetch.VirtualSeconds,
                   RO.Link.LatencySeconds +
                       RO.Link.streamSeconds(BareFetch.Bytes.size()));
  EXPECT_LT(BareFetch.VirtualSeconds, SimFetch.VirtualSeconds);
}

//===----------------------------------------------------------------------===//
// Many concurrent clients (scaled-down scale harness)
//===----------------------------------------------------------------------===//

TEST(NetStore, ConcurrentClientsAllMatchTheEagerRun) {
  struct Input {
    unsigned Functions;
    unsigned Clients;
  };
  // The second input is the scale case: 256 concurrent clients against
  // one server on the 96-function program.
  for (Input In : {Input{10, 24}, Input{96, 256}}) {
    SCOPED_TRACE(std::to_string(In.Clients) + " clients, " +
                 std::to_string(In.Functions) + " functions");
    vm::VMProgram P = buildVM(syntheticSource(In.Functions));
    vm::RunResult Eager = vm::Machine(P).run();
    ASSERT_TRUE(Eager.Ok) << Eager.Trap;
    std::vector<uint8_t> Image = buildImage(P, "brisc+flate");
    std::unique_ptr<net::FrameServer> Server = startServer(Image);
    ASSERT_NE(Server, nullptr);

    std::atomic<unsigned> Failures{0}, Mismatches{0};
    std::vector<std::thread> Clients;
    Clients.reserve(In.Clients);
    for (unsigned I = 0; I != In.Clients; ++I)
      Clients.emplace_back([&] {
        net::SocketOptions SO;
        SO.Port = Server->port();
        Result<std::unique_ptr<net::SocketFrameSource>> Sock =
            net::SocketFrameSource::connect(SO);
        if (!Sock.ok()) {
          ++Failures;
          return;
        }
        StoreOptions Opts;
        Opts.Retry.RealTime = true;
        Result<std::unique_ptr<CodeStore>> St =
            CodeStore::tryFromSource(Sock.take(), Opts);
        if (!St.ok()) {
          ++Failures;
          return;
        }
        vm::RunResult R = runFromStore(*St.value());
        if (!R.Ok)
          ++Failures;
        else if (R.Output != Eager.Output || R.ExitCode != Eager.ExitCode)
          ++Mismatches;
      });
    for (std::thread &T : Clients)
      T.join();

    EXPECT_EQ(Failures.load(), 0u);
    EXPECT_EQ(Mismatches.load(), 0u);
    net::ServerStats SS = Server->stats();
    EXPECT_EQ(SS.Accepted, In.Clients);
    EXPECT_EQ(SS.ProtocolErrors, 0u);
    EXPECT_GE(SS.FramesServed, uint64_t(In.Clients));
  }
}

// Round-trip economics on the 96-function program, one client whose
// cache never re-faults, counted on the server. Per-frame faulting pays
// the manifest plus one round trip per frame; one coalesced prefetch
// pays the manifest plus one GetBatch; trace-driven prediction must sit
// strictly below per-frame, at the same count on every run. A
// prediction wave skips frames whose warm is still pending on the pool,
// so the count cannot depend on how far the pool has got.
TEST(NetStore, PrefetchRoundTripsPerFrameBatchedPredictive) {
  vm::VMProgram P = buildVM(syntheticSource(96));
  vm::RunResult Eager = vm::Machine(P).run();
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;
  store::TraceRunResult Recorded = store::recordTrace(P);
  ASSERT_TRUE(Recorded.Run.Ok) << Recorded.Run.Trap;
  std::vector<uint8_t> Image = buildImage(P, "brisc+flate");
  std::unique_ptr<net::FrameServer> Server = startServer(Image);
  ASSERT_NE(Server, nullptr);

  enum class Mode { PerFrame, Batched, Predictive };
  auto roundTrips = [&](Mode M) -> uint64_t {
    uint64_t Before = Server->stats().Requests;
    std::unique_ptr<net::SocketFrameSource> Sock =
        connectClient(Server->port());
    EXPECT_NE(Sock, nullptr);
    if (!Sock)
      return 0;
    StoreOptions Opts;
    Opts.CacheBudgetBytes = 64u << 20;
    Opts.Retry.RealTime = true;
    Result<std::unique_ptr<CodeStore>> St =
        CodeStore::tryFromSource(std::move(Sock), Opts);
    EXPECT_TRUE(St.ok()) << (St.ok() ? "" : St.error().message());
    if (!St.ok())
      return 0;
    CodeStore &Store = *St.value();

    vm::RunResult R;
    ThreadPool Pool(2);
    if (M == Mode::Batched) {
      std::vector<uint32_t> All(Store.functionCount());
      for (uint32_t I = 0; I != Store.functionCount(); ++I)
        All[I] = I;
      Store.prefetch(All, Pool);
      Pool.wait();
    }
    if (M == Mode::Predictive) {
      Store.applyAccessProfile(Recorded.Trace);
      R = runFromStore(Store, {}, &Pool);
    } else {
      R = runFromStore(Store);
    }
    EXPECT_TRUE(R.Ok) << R.Trap;
    EXPECT_EQ(R.Output, Eager.Output);
    EXPECT_EQ(R.ExitCode, Eager.ExitCode);
    return Server->stats().Requests - Before;
  };

  uint64_t PerFrame = roundTrips(Mode::PerFrame);
  EXPECT_EQ(PerFrame, 98u);
  EXPECT_EQ(roundTrips(Mode::Batched), 2u);
  uint64_t Predictive = roundTrips(Mode::Predictive);
  EXPECT_LT(Predictive, PerFrame);
  for (int Rep = 0; Rep != 4; ++Rep)
    EXPECT_EQ(roundTrips(Mode::Predictive), Predictive) << "repeat " << Rep;
}

} // namespace
