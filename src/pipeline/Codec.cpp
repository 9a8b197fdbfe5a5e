//===- pipeline/Codec.cpp - Codec stats, registry, chain parsing ----------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Codec.h"

#include "pipeline/Payload.h"
#include "support/Support.h"

#include <chrono>

using namespace ccomp;
using namespace ccomp::pipeline;

namespace ccomp {
namespace pipeline {
// Defined in Codecs.cpp; called once from the Registry constructor.
void registerBuiltinCodecs(Registry &R);
} // namespace pipeline
} // namespace ccomp

namespace {
uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
} // namespace

// Stats-ordering contract: writers publish the payload counters (bytes,
// nanos, errors) BEFORE bumping the call counter with a release RMW, and
// snapshot() loads the call counter FIRST with acquire. Release-sequence
// rules then guarantee a mid-run reader that observes CompressCalls == k
// also observes at least the bytes/nanos of those k calls — the previous
// order (calls first) let a snapshot report "k calls, k-1 calls' bytes",
// i.e. counts without their bytes, which the 8-thread hammer test in
// test_codec pins.

std::vector<uint8_t> Codec::compress(ByteSpan Payload) const {
  uint64_t Start = nowNanos();
  std::vector<uint8_t> Frame = compressImpl(Payload);
  CompressNanos.fetch_add(nowNanos() - Start, std::memory_order_release);
  BytesIn.fetch_add(Payload.size(), std::memory_order_release);
  BytesOut.fetch_add(Frame.size(), std::memory_order_release);
  CompressCalls.fetch_add(1, std::memory_order_release);
  return Frame;
}

Result<std::vector<uint8_t>> Codec::tryDecompress(ByteSpan Frame) const {
  uint64_t Start = nowNanos();
  Result<std::vector<uint8_t>> R = tryDecompressImpl(Frame);
  DecompressNanos.fetch_add(nowNanos() - Start, std::memory_order_release);
  if (!R.ok())
    DecodeErrors.fetch_add(1, std::memory_order_release);
  DecompressCalls.fetch_add(1, std::memory_order_release);
  return R;
}

Result<std::vector<vm::Instr>>
Codec::tryDecodePage(ByteSpan Frame,
                     const std::vector<uint32_t> &PageLabels) const {
  uint64_t Start = nowNanos();
  Result<std::vector<vm::Instr>> R = tryDecodePageImpl(Frame, PageLabels);
  DecompressNanos.fetch_add(nowNanos() - Start, std::memory_order_release);
  if (!R.ok())
    DecodeErrors.fetch_add(1, std::memory_order_release);
  DecompressCalls.fetch_add(1, std::memory_order_release);
  return R;
}

Result<std::vector<vm::Instr>>
Codec::tryDecodePageImpl(ByteSpan Frame,
                         const std::vector<uint32_t> &PageLabels) const {
  Result<std::vector<uint8_t>> Payload = tryDecompressImpl(Frame);
  if (!Payload.ok())
    return Payload.error();
  return tryDecodePagePayload(payloadKind(), Payload.value(), PageLabels);
}

CodecStats Codec::snapshot() const {
  auto ReadAll = [this] {
    CodecStats S;
    // Call counters first (acquire): everything their writers published
    // before the release bump — bytes, nanos, errors — is then visible.
    S.CompressCalls = CompressCalls.load(std::memory_order_acquire);
    S.DecompressCalls = DecompressCalls.load(std::memory_order_acquire);
    S.BytesIn = BytesIn.load(std::memory_order_acquire);
    S.BytesOut = BytesOut.load(std::memory_order_acquire);
    S.DecodeErrors = DecodeErrors.load(std::memory_order_acquire);
    S.CompressNanos = CompressNanos.load(std::memory_order_acquire);
    S.DecompressNanos = DecompressNanos.load(std::memory_order_acquire);
    return S;
  };
  // Two identical consecutive passes prove no update landed mid-read.
  // Under sustained concurrent traffic there is no consistent value to
  // report; after a few tries return the freshest pass.
  CodecStats Prev = ReadAll();
  for (int Try = 0; Try != 8; ++Try) {
    CodecStats Cur = ReadAll();
    if (Cur == Prev)
      return Cur;
    Prev = Cur;
  }
  return Prev;
}

void Codec::resetStats() const {
  CompressCalls.store(0, std::memory_order_relaxed);
  BytesIn.store(0, std::memory_order_relaxed);
  BytesOut.store(0, std::memory_order_relaxed);
  DecompressCalls.store(0, std::memory_order_relaxed);
  DecodeErrors.store(0, std::memory_order_relaxed);
  CompressNanos.store(0, std::memory_order_relaxed);
  DecompressNanos.store(0, std::memory_order_relaxed);
}

Registry &Registry::instance() {
  static Registry R;
  return R;
}

Registry::Registry() { registerBuiltinCodecs(*this); }

void Registry::add(std::unique_ptr<Codec> C) {
  if (find(C->name()))
    reportFatal(std::string("pipeline: duplicate codec name '") + C->name() +
                "'");
  Codecs.push_back(std::move(C));
}

const Codec *Registry::find(std::string_view Name) const {
  for (const std::unique_ptr<Codec> &C : Codecs)
    if (Name == C->name())
      return C.get();
  return nullptr;
}

std::vector<const Codec *> pipeline::parseChain(std::string_view Spec,
                                                std::string &Error) {
  std::vector<const Codec *> Chain;
  const Registry &R = Registry::instance();
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Plus = Spec.find('+', Pos);
    if (Plus == std::string_view::npos)
      Plus = Spec.size();
    std::string_view Name = Spec.substr(Pos, Plus - Pos);
    if (Name.empty()) {
      Error = "empty codec name in chain '" + std::string(Spec) + "'";
      return {};
    }
    const Codec *C = R.find(Name);
    if (!C) {
      Error = "unknown codec '" + std::string(Name) + "'";
      return {};
    }
    if (!Chain.empty() && C->payloadKind() != PayloadKind::Raw) {
      Error = "codec '" + std::string(Name) +
              "' cannot follow another codec: it does not accept raw bytes";
      return {};
    }
    Chain.push_back(C);
    Pos = Plus + 1;
  }
  return Chain;
}
