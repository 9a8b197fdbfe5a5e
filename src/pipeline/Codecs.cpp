//===- pipeline/Codecs.cpp - Built-in codec adapters ----------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The built-in adapters that put the project's compression stacks
/// behind the Codec seam:
///
///   flate       general LZ77+Huffman over arbitrary bytes
///   vm-compact  fixed-width VM code <-> CISC-class variable-length code
///   brisc       function image <-> BRISC Markov-coded executable
///   wire        flat module container <-> section-3 wire format
///   brisc-ctx   context-modeled instruction streams (BriscCtxCodec.cpp)
///   bwt-dict    BWT + MTF + Huffman over bytes (BwtDictCodec.cpp)
///
//===----------------------------------------------------------------------===//

#include "brisc/Brisc.h"
#include "flate/Flate.h"
#include "pipeline/Codec.h"
#include "pipeline/Payload.h"
#include "support/Support.h"
#include "vm/Encode.h"
#include "wire/Wire.h"

using namespace ccomp;
using namespace ccomp::pipeline;

namespace {

class FlateCodec final : public Codec {
public:
  const char *name() const override { return "flate"; }
  const char *description() const override {
    return "LZ77 + canonical Huffman over arbitrary bytes (the gzip-class "
           "baseline)";
  }
  PayloadKind payloadKind() const override { return PayloadKind::Raw; }

protected:
  std::vector<uint8_t> compressImpl(ByteSpan Payload) const override {
    return flate::compress(Payload);
  }
  Result<std::vector<uint8_t>> tryDecompressImpl(ByteSpan F) const override {
    return flate::tryDecompress(F);
  }
};

/// Transcodes a function's fixed-width code into the CISC-class compact
/// encoding (opcode byte, packed register nibbles, zig-zag varints) and
/// back. Pure re-encoding: both forms carry the same instruction fields,
/// so the round trip is byte-exact without any side tables.
class VMCompactCodec final : public Codec {
public:
  const char *name() const override { return "vm-compact"; }
  const char *description() const override {
    return "fixed-width VM code re-encoded variable-length (the "
           "Pentium-class size baseline)";
  }
  PayloadKind payloadKind() const override { return PayloadKind::FixedCode; }

protected:
  std::vector<uint8_t> compressImpl(ByteSpan Payload) const override {
    Result<std::vector<vm::Instr>> Code = vm::tryDecodeFunction(Payload);
    if (!Code.ok())
      reportFatal("vm-compact: payload is not fixed-width VM code: " +
                  Code.error().message());
    vm::VMFunction F;
    F.Code = Code.take();
    return vm::encodeFunctionCompact(F);
  }
  Result<std::vector<uint8_t>> tryDecompressImpl(ByteSpan F) const override {
    Result<std::vector<vm::Instr>> Code = vm::tryDecodeFunctionCompact(F);
    if (!Code.ok())
      return Code.error();
    vm::VMFunction Fn;
    Fn.Code = Code.take();
    return vm::encodeFunction(Fn);
  }
};

/// Compresses one function image into a self-contained BRISC executable.
/// Epilogue recognition stays off: EPI erases the reload sequence, and
/// this seam promises instruction-exact round trips.
class BriscCodec final : public Codec {
public:
  const char *name() const override { return "brisc"; }
  const char *description() const override {
    return "operand-specialized, Markov-coded BRISC image of one function "
           "(section 4)";
  }
  PayloadKind payloadKind() const override { return PayloadKind::FuncImage; }

protected:
  std::vector<uint8_t> compressImpl(ByteSpan Payload) const override {
    Result<vm::VMFunction> F = tryDecodeFuncImage(Payload);
    if (!F.ok())
      reportFatal("brisc codec: payload is not a function image: " +
                  F.error().message());
    vm::VMProgram P;
    P.Functions.push_back(F.take());
    brisc::CompressOptions Opts;
    Opts.EnableEpi = false;
    brisc::BriscProgram B = brisc::compress(P, Opts);
    return B.serialize(/*IncludeData=*/true);
  }
  Result<std::vector<uint8_t>> tryDecompressImpl(ByteSpan F) const override {
    Result<vm::VMFunction> Fn = decodeFunction(F);
    if (!Fn.ok())
      return Fn.error();
    return encodeFuncImage(Fn.value());
  }

  /// BRISC to instructions with no function image in between: a decoded
  /// branch names label j, whose instruction index LabelPos[j] is the
  /// rank the image would have carried.
  Result<std::vector<vm::Instr>>
  tryDecodePageImpl(ByteSpan F,
                    const std::vector<uint32_t> &PageLabels) const override {
    Result<vm::VMFunction> Fn = decodeFunction(F);
    if (!Fn.ok())
      return Fn.error();
    return tryDecode([&] {
      vm::VMFunction &Page = Fn.value();
      for (vm::Instr &In : Page.Code)
        if (vm::isBranch(In.Op))
          In.Target = Page.LabelPos[In.Target];
      remapPageRanks(Page.Code, PageLabels);
      return std::move(Page.Code);
    });
  }

private:
  static Result<vm::VMFunction> decodeFunction(ByteSpan F) {
    Result<brisc::BriscProgram> B = brisc::BriscProgram::parse(F);
    if (!B.ok())
      return B.error();
    Result<vm::VMProgram> P = brisc::tryDecodeToVM(B.value());
    if (!P.ok())
      return P.error();
    if (P.value().Functions.size() != 1)
      return DecodeError("brisc codec: frame holds " +
                         std::to_string(P.value().Functions.size()) +
                         " functions, expected one");
    return std::move(P.value().Functions[0]);
  }
};

/// Compresses a flat module container through the paper's full wire
/// pipeline (streams + MTF + Huffman + flate).
class WireCodec final : public Codec {
public:
  const char *name() const override { return "wire"; }
  const char *description() const override {
    return "split-stream MTF+Huffman wire format over a flat module "
           "container (section 3)";
  }
  PayloadKind payloadKind() const override { return PayloadKind::Module; }

protected:
  std::vector<uint8_t> compressImpl(ByteSpan Payload) const override {
    Result<std::unique_ptr<ir::Module>> M =
        wire::tryDeserializeModule(Payload);
    if (!M.ok())
      reportFatal("wire codec: payload is not a flat module container: " +
                  M.error().message());
    return wire::compress(*M.value(), wire::Pipeline::Full);
  }
  Result<std::vector<uint8_t>> tryDecompressImpl(ByteSpan F) const override {
    std::string Error;
    std::unique_ptr<ir::Module> M = wire::decompress(F, Error);
    if (!M)
      return DecodeError("wire codec: " + Error);
    return wire::serializeModule(*M);
  }
};

} // namespace

namespace ccomp {
namespace pipeline {

// Defined in BriscCtxCodec.cpp / BwtDictCodec.cpp.
std::unique_ptr<Codec> createBriscCtxCodec();
std::unique_ptr<Codec> createBwtDictCodec();

void registerBuiltinCodecs(Registry &R) {
  R.add(std::make_unique<FlateCodec>());
  R.add(std::make_unique<VMCompactCodec>());
  R.add(std::make_unique<BriscCodec>());
  R.add(std::make_unique<WireCodec>());
  R.add(createBriscCtxCodec());
  R.add(createBwtDictCodec());
}

} // namespace pipeline
} // namespace ccomp
