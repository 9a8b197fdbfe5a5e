//===- net/Message.h - CCPK frame-service wire protocol --------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one message codec behind every CCPK frame transport, real or
/// simulated. A frame-service conversation is length-prefixed binary
/// messages over a byte stream:
///
///   u32   payload length (bytes after this prefix; bounded by
///         MaxMessageBytes so a corrupt prefix can never drive an
///         allocation)
///   u8    message type (MsgType)
///   ...   type-specific body (ByteWriter little-endian conventions)
///
/// The conversation: the client opens with Hello (magic + protocol
/// version); the server answers Welcome carrying the container's
/// manifest content hash, chain spec, and frame census — the
/// handshake is what lets a SocketFrameSource answer contentHash()
/// without fetching, so the shared-registry trust check works
/// end-to-end over the network. After that the client sends GetFrame
/// (one id; ManifestFrameId for the manifest) or GetBatch (many ids,
/// one round trip) and the server answers FrameData / BatchData, or
/// ErrorReply carrying a typed store::FetchErrorKind so transport
/// failures keep their transient/permanent classification across the
/// wire.
///
/// Everything here is inline and allocation-transparent: encode*()
/// builds the full message (prefix included), wireSize*() computes the
/// exact encoded size without building (the simulated transport charges
/// link time for these sizes, so sim and socket agree byte-for-byte on
/// what the wire carries), and tryParseMessage() inverts any payload
/// under the usual tryDecode/DecodeError rules.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_NET_MESSAGE_H
#define CCOMP_NET_MESSAGE_H

#include "store/FrameSource.h"
#include "support/ByteIO.h"
#include "support/Error.h"
#include "support/Span.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ccomp {
namespace net {

/// First field of Hello/Welcome; "CCPN" on the wire (CCPK-over-network).
constexpr uint32_t WireMagic = 0x4E504343;
constexpr uint8_t WireVersion = 1;

/// Hard cap on one message's payload. Both ends reject a length prefix
/// beyond this before allocating anything, so a corrupt or hostile
/// 4 GiB prefix costs nothing; large modules must batch under it.
constexpr size_t MaxMessageBytes = 64u << 20;

/// Bytes of the length prefix itself.
constexpr size_t LengthPrefixBytes = 4;

enum class MsgType : uint8_t {
  Hello = 1,     ///< Client -> server: magic, version.
  Welcome = 2,   ///< Server -> client: magic, version, hash, spec, census.
  GetFrame = 3,  ///< Client -> server: one frame id.
  GetBatch = 4,  ///< Client -> server: many frame ids, one round trip.
  FrameData = 5, ///< Server -> client: one frame's bytes.
  BatchData = 6, ///< Server -> client: per-id bytes or typed error.
  ErrorReply = 7 ///< Server -> client: typed failure for one request.
};

/// One entry of a BatchData reply: the frame's bytes, or why not.
struct BatchEntry {
  uint32_t Id = 0;
  bool Ok = false;
  std::vector<uint8_t> Bytes;
  store::FetchErrorKind Err = store::FetchErrorKind::Io;
  std::string Msg;
};

/// A parsed message, tagged by Type; only the fields of that type are
/// meaningful. One flat struct (rather than a variant) keeps the parse
/// API a single call for a dispatching server loop.
struct Message {
  MsgType Type = MsgType::Hello;
  uint8_t Version = 0; ///< Hello / Welcome.
  // Welcome:
  uint64_t ContentHash = 0;
  std::string ChainSpec;
  uint32_t FrameCount = 0;
  uint64_t FrameBytes = 0;
  // GetFrame / FrameData / ErrorReply:
  uint32_t Id = 0;
  std::vector<uint8_t> Bytes; ///< FrameData payload.
  // GetBatch:
  std::vector<uint32_t> Ids;
  // BatchData:
  std::vector<BatchEntry> Entries;
  // ErrorReply:
  store::FetchErrorKind Err = store::FetchErrorKind::Io;
  std::string Msg;
};

//===----------------------------------------------------------------------===//
// Size helpers (no allocation)
//===----------------------------------------------------------------------===//

inline size_t varUSize(uint64_t V) {
  size_t N = 1;
  while (V >= 0x80) {
    V >>= 7;
    ++N;
  }
  return N;
}

inline size_t wireSizeHello() {
  return LengthPrefixBytes + 1 + 4 + 1; // type, magic, version.
}

inline size_t wireSizeWelcome(const std::string &ChainSpec) {
  return LengthPrefixBytes + 1 + 4 + 1 + 8 +
         varUSize(ChainSpec.size()) + ChainSpec.size() + 4 + 8;
}

inline size_t wireSizeGetFrame() {
  return LengthPrefixBytes + 1 + 4; // type, id.
}

inline size_t wireSizeGetBatch(size_t NumIds) {
  return LengthPrefixBytes + 1 + varUSize(NumIds) + 4 * NumIds;
}

inline size_t wireSizeFrameData(size_t PayloadLen) {
  return LengthPrefixBytes + 1 + 4 + varUSize(PayloadLen) + PayloadLen;
}

inline size_t wireSizeErrorReply(const std::string &Msg) {
  return LengthPrefixBytes + 1 + 4 + 1 + varUSize(Msg.size()) + Msg.size();
}

/// What one successful single-frame fetch of \p PayloadLen bytes puts
/// on the wire, both directions: the GetFrame request plus its
/// FrameData reply. This is the quantity the simulated transport
/// charges per fetch when RemoteOptions::WireFraming is on, so the sim
/// and a real loopback server account identical byte counts.
inline size_t wireSizeFetch(size_t PayloadLen) {
  return wireSizeGetFrame() + wireSizeFrameData(PayloadLen);
}

//===----------------------------------------------------------------------===//
// Encoding (full messages, length prefix included)
//===----------------------------------------------------------------------===//

namespace detail {

/// Stamps the u32 length prefix over bytes [0,4) once the payload is
/// fully written.
inline std::vector<uint8_t> seal(ByteWriter &W) {
  std::vector<uint8_t> Out = W.take();
  uint32_t Len = static_cast<uint32_t>(Out.size() - LengthPrefixBytes);
  Out[0] = static_cast<uint8_t>(Len);
  Out[1] = static_cast<uint8_t>(Len >> 8);
  Out[2] = static_cast<uint8_t>(Len >> 16);
  Out[3] = static_cast<uint8_t>(Len >> 24);
  return Out;
}

inline ByteWriter open(MsgType T) {
  ByteWriter W;
  W.writeU32(0); // Length placeholder, sealed later.
  W.writeU8(static_cast<uint8_t>(T));
  return W;
}

} // namespace detail

inline std::vector<uint8_t> encodeHello() {
  ByteWriter W = detail::open(MsgType::Hello);
  W.writeU32(WireMagic);
  W.writeU8(WireVersion);
  return detail::seal(W);
}

inline std::vector<uint8_t> encodeWelcome(uint64_t ContentHash,
                                          const std::string &ChainSpec,
                                          uint32_t FrameCount,
                                          uint64_t FrameBytes) {
  ByteWriter W = detail::open(MsgType::Welcome);
  W.writeU32(WireMagic);
  W.writeU8(WireVersion);
  W.writeU64(ContentHash);
  W.writeStr(ChainSpec);
  W.writeU32(FrameCount);
  W.writeU64(FrameBytes);
  return detail::seal(W);
}

inline std::vector<uint8_t> encodeGetFrame(uint32_t Id) {
  ByteWriter W = detail::open(MsgType::GetFrame);
  W.writeU32(Id);
  return detail::seal(W);
}

inline std::vector<uint8_t> encodeGetBatch(const std::vector<uint32_t> &Ids) {
  ByteWriter W = detail::open(MsgType::GetBatch);
  W.writeVarU(Ids.size());
  for (uint32_t Id : Ids)
    W.writeU32(Id);
  return detail::seal(W);
}

inline std::vector<uint8_t> encodeFrameData(uint32_t Id, ByteSpan Payload) {
  ByteWriter W = detail::open(MsgType::FrameData);
  W.writeU32(Id);
  W.writeVarU(Payload.size());
  W.writeBytes(Payload.data(), Payload.size());
  return detail::seal(W);
}

inline std::vector<uint8_t> encodeBatchData(const std::vector<BatchEntry> &Es) {
  ByteWriter W = detail::open(MsgType::BatchData);
  W.writeVarU(Es.size());
  for (const BatchEntry &E : Es) {
    W.writeU32(E.Id);
    W.writeU8(E.Ok ? 1 : 0);
    if (E.Ok) {
      W.writeVarU(E.Bytes.size());
      W.writeBytes(E.Bytes);
    } else {
      W.writeU8(static_cast<uint8_t>(E.Err));
      W.writeStr(E.Msg);
    }
  }
  return detail::seal(W);
}

inline std::vector<uint8_t> encodeErrorReply(uint32_t Id,
                                             store::FetchErrorKind K,
                                             const std::string &Msg) {
  ByteWriter W = detail::open(MsgType::ErrorReply);
  W.writeU32(Id);
  W.writeU8(static_cast<uint8_t>(K));
  W.writeStr(Msg);
  return detail::seal(W);
}

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

namespace detail {

inline store::FetchErrorKind parseKind(uint8_t Raw) {
  if (Raw > static_cast<uint8_t>(store::FetchErrorKind::Io))
    decodeFail("net message: unknown fetch-error kind " +
               std::to_string(Raw));
  return static_cast<store::FetchErrorKind>(Raw);
}

inline void parseMagicVersion(ByteReader &R, Message &M, const char *Who) {
  if (R.readU32() != WireMagic)
    decodeFail(std::string("net message: bad magic in ") + Who);
  M.Version = R.readU8();
  if (M.Version != WireVersion)
    decodeFail(std::string("net message: unsupported protocol version ") +
               std::to_string(M.Version) + " in " + Who);
}

} // namespace detail

/// Parses one message payload (the bytes *after* the length prefix).
/// Malformed input — unknown type, bad magic, truncated body, trailing
/// bytes, inflated counts — yields a typed DecodeError, never UB or an
/// allocation driven by a lying count.
inline Result<Message> tryParseMessage(ByteSpan Payload) {
  return tryDecode([&] {
    Message M;
    ByteReader R(Payload);
    uint8_t RawType = R.readU8();
    if (RawType < static_cast<uint8_t>(MsgType::Hello) ||
        RawType > static_cast<uint8_t>(MsgType::ErrorReply))
      decodeFail("net message: unknown message type " +
                 std::to_string(RawType));
    M.Type = static_cast<MsgType>(RawType);
    switch (M.Type) {
    case MsgType::Hello:
      detail::parseMagicVersion(R, M, "Hello");
      break;
    case MsgType::Welcome:
      detail::parseMagicVersion(R, M, "Welcome");
      M.ContentHash = R.readU64();
      M.ChainSpec = R.readStr();
      M.FrameCount = R.readU32();
      M.FrameBytes = R.readU64();
      break;
    case MsgType::GetFrame:
      M.Id = R.readU32();
      break;
    case MsgType::GetBatch: {
      uint64_t N = R.readVarU();
      // Each id costs 4 bytes on the wire; a count beyond the payload
      // is lying (and must not reach a reserve).
      if (N > R.remaining() / 4)
        decodeFail("net message: GetBatch id count overruns the payload");
      M.Ids.reserve(static_cast<size_t>(N));
      for (uint64_t I = 0; I != N; ++I)
        M.Ids.push_back(R.readU32());
      break;
    }
    case MsgType::FrameData: {
      M.Id = R.readU32();
      uint64_t Len = R.readVarU();
      if (Len > R.remaining())
        decodeFail("net message: FrameData length overruns the payload");
      M.Bytes = R.readBytes(static_cast<size_t>(Len));
      break;
    }
    case MsgType::BatchData: {
      uint64_t N = R.readVarU();
      // Each entry costs at least 6 bytes (id + flag + one more).
      if (N > R.remaining() / 6 + 1)
        decodeFail("net message: BatchData entry count overruns the payload");
      M.Entries.reserve(static_cast<size_t>(N));
      for (uint64_t I = 0; I != N; ++I) {
        BatchEntry E;
        E.Id = R.readU32();
        E.Ok = R.readU8() != 0;
        if (E.Ok) {
          uint64_t Len = R.readVarU();
          if (Len > R.remaining())
            decodeFail("net message: batch entry overruns the payload");
          E.Bytes = R.readBytes(static_cast<size_t>(Len));
        } else {
          E.Err = detail::parseKind(R.readU8());
          E.Msg = R.readStr();
        }
        M.Entries.push_back(std::move(E));
      }
      break;
    }
    case MsgType::ErrorReply:
      M.Id = R.readU32();
      M.Err = detail::parseKind(R.readU8());
      M.Msg = R.readStr();
      break;
    }
    if (!R.atEnd())
      decodeFail("net message: trailing bytes after the message body");
    return M;
  });
}

} // namespace net
} // namespace ccomp

#endif // CCOMP_NET_MESSAGE_H
