//===- pipeline/Codec.h - Uniform codec interface and registry --*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform compressor interface that puts every compression stack in
/// the project behind one seam, in the style of the tudocomp framework:
/// a Codec maps a byte payload to a compressed frame and back, a static
/// Registry names them, and per-codec atomic counters make every call
/// measurable. Benches, tests, and the compressor tool all drive the
/// same registry instead of re-implementing per-module plumbing.
///
/// Payload contracts (what the input span must hold):
///   flate       - arbitrary bytes
///   vm-compact  - a function's fixed-width VM code (vm::encodeFunction)
///   brisc       - a canonical function image (pipeline/Payload.h)
///   wire        - a flat module container (wire::serializeModule)
///
/// Every codec's tryDecompress(compress(x)) returns x byte-identically;
/// that property is what lets chains (e.g. "brisc+flate") invert.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_PIPELINE_CODEC_H
#define CCOMP_PIPELINE_CODEC_H

#include "support/Error.h"
#include "support/Span.h"
#include "vm/ISA.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ccomp {
namespace pipeline {

/// What a codec expects its input payload to be. Drives corpus/job
/// construction: per-function payloads fan out across the thread pool;
/// module payloads are one job per module.
enum class PayloadKind : uint8_t {
  Raw,       ///< Arbitrary bytes.
  FixedCode, ///< One function's fixed-width VM code.
  FuncImage, ///< One function's canonical image (name/frame/labels/code).
  Module,    ///< A flat module container.
};

/// Monotonic per-codec counters. Snapshot of the atomics in Codec.
struct CodecStats {
  uint64_t CompressCalls = 0;
  uint64_t BytesIn = 0;       ///< Payload bytes given to compress().
  uint64_t BytesOut = 0;      ///< Frame bytes produced by compress().
  uint64_t DecompressCalls = 0;
  uint64_t DecodeErrors = 0;  ///< tryDecompress() calls that failed.
  uint64_t CompressNanos = 0; ///< Wall time inside compress().
  uint64_t DecompressNanos = 0;

  friend bool operator==(const CodecStats &A, const CodecStats &B) {
    return A.CompressCalls == B.CompressCalls && A.BytesIn == B.BytesIn &&
           A.BytesOut == B.BytesOut && A.DecompressCalls == B.DecompressCalls &&
           A.DecodeErrors == B.DecodeErrors &&
           A.CompressNanos == B.CompressNanos &&
           A.DecompressNanos == B.DecompressNanos;
  }
};

/// A registered compressor. Thread-safe: compress/tryDecompress may be
/// called concurrently from pipeline workers; the stat counters are
/// atomics.
class Codec {
public:
  virtual ~Codec() = default;

  virtual const char *name() const = 0;
  virtual const char *description() const = 0;
  virtual PayloadKind payloadKind() const = 0;

  /// Compresses a payload honoring this codec's payload contract (a
  /// violated contract is a caller bug and aborts). Counts bytes and
  /// wall time.
  std::vector<uint8_t> compress(ByteSpan Payload) const;

  /// Decompresses a frame of unknown provenance back into the payload;
  /// malformed frames yield a typed error and bump the error counter.
  Result<std::vector<uint8_t>> tryDecompress(ByteSpan Frame) const;

  /// Decodes a page frame of unknown provenance (this codec's compress()
  /// of an encodePagePayload() payload) straight to the page's
  /// instructions, branch targets mapped back through \p PageLabels to
  /// function-label indices. Counts exactly like tryDecompress().
  Result<std::vector<vm::Instr>>
  tryDecodePage(ByteSpan Frame, const std::vector<uint32_t> &PageLabels) const;

  /// Mutually consistent snapshot of this codec's counters since process
  /// start (or the last resetStats()). The counters are independent
  /// atomics; snapshot() re-reads until two consecutive passes agree
  /// (bounded retries), so a quiescent codec always reports a consistent
  /// set. Under sustained concurrent traffic the retries can exhaust,
  /// but the write/read ordering still guarantees no "counts without
  /// bytes" tear: writers publish bytes/nanos before the release bump of
  /// the call counter, and the snapshot loads call counters first with
  /// acquire, so a pass reporting k calls has seen at least those k
  /// calls' bytes. This is what every stats output path should use.
  CodecStats snapshot() const;

  void resetStats() const;

protected:
  virtual std::vector<uint8_t> compressImpl(ByteSpan Payload) const = 0;
  virtual Result<std::vector<uint8_t>>
  tryDecompressImpl(ByteSpan Frame) const = 0;
  /// The default decompresses to the payload and decodes that with
  /// tryDecodePagePayload(); a codec that can build the instructions
  /// without the payload round trip overrides it.
  virtual Result<std::vector<vm::Instr>>
  tryDecodePageImpl(ByteSpan Frame,
                    const std::vector<uint32_t> &PageLabels) const;

private:
  mutable std::atomic<uint64_t> CompressCalls{0}, BytesIn{0}, BytesOut{0},
      DecompressCalls{0}, DecodeErrors{0}, CompressNanos{0},
      DecompressNanos{0};
};

/// The static codec registry. Construction registers the four built-in
/// adapters (flate, vm-compact, brisc, wire); further codecs can be
/// added at runtime.
class Registry {
public:
  static Registry &instance();

  /// Registers \p C; duplicate names are a caller bug.
  void add(std::unique_ptr<Codec> C);

  /// Finds a codec by name; null if absent.
  const Codec *find(std::string_view Name) const;

  /// All codecs in registration order.
  const std::vector<std::unique_ptr<Codec>> &all() const { return Codecs; }

private:
  Registry();
  std::vector<std::unique_ptr<Codec>> Codecs;
};

/// Parses a '+'-separated codec chain ("brisc+flate"). Every codec must
/// exist and every codec after the first must accept Raw payloads (it
/// sees the previous stage's frames). Returns the chain, or empty and
/// sets \p Error.
std::vector<const Codec *> parseChain(std::string_view Spec,
                                      std::string &Error);

} // namespace pipeline
} // namespace ccomp

#endif // CCOMP_PIPELINE_CODEC_H
