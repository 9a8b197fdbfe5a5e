//===- pipeline/BriscCtxCodec.cpp - Context-modeled instruction codec -----===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The brisc-ctx codec: a context-modeled instruction-stream coder in
/// the spirit of Hirvola's MIPS compressor. The fixed-width payload is
/// decoded to instructions, each instruction is split into four streams
/// (opcode, register, immediate, branch/call target), and every stream
/// is MTF + Huffman coded under a model conditioned on the CLASS of the
/// previous instruction (start / memory / ALU / branch / call). Opcode
/// and register locality differ sharply after a load versus after a
/// compare-and-branch, so the per-context tables buy ratio the flat
/// BRISC opcode model leaves behind.
///
/// Like vm-compact, decode reconstructs the instruction fields and
/// re-emits them through vm::encodeFunction, so the round trip is
/// byte-exact by construction.
///
/// Frame layout:
///   'C' 'X' version(1)
///   varU  InstrCount
///   20 models (5 contexts x 4 streams), each:
///     varU NumSyms; nibble-packed code lengths, (NumSyms+1)/2 bytes
///   varU  BitBytes
///   BitBytes bytes of LSB-first interleaved Huffman codes + literals
///     (op literal: 8 bits; reg literal: 4 bits; imm literal: zig-zag
///      byte groups with continuation bits; target literal: raw byte
///      groups with continuation bits)
///
//===----------------------------------------------------------------------===//

#include "pipeline/Codec.h"
#include "support/ByteIO.h"
#include "support/Huffman.h"
#include "support/MTF.h"
#include "support/Support.h"
#include "vm/Encode.h"
#include "vm/ISA.h"

#include <algorithm>
#include <memory>

using namespace ccomp;
using namespace ccomp::pipeline;
using vm::FieldKind;
using vm::Instr;
using vm::VMOp;

namespace {

constexpr uint8_t FrameMagic0 = 'C';
constexpr uint8_t FrameMagic1 = 'X';
constexpr uint8_t FrameVersion = 1;

/// Conditioning contexts: the class of the previous instruction (Start
/// before the first one).
enum Ctx : unsigned { CtxStart = 0, CtxMem, CtxAlu, CtxBranch, CtxCall };
constexpr unsigned NumCtx = 5;

/// The four per-context streams.
enum Stream : unsigned { StreamOp = 0, StreamReg, StreamImm, StreamTarget };
constexpr unsigned NumStreams = 4;
constexpr unsigned NumModels = NumCtx * NumStreams;

unsigned classOf(VMOp Op) {
  if (Op >= VMOp::LD_B && Op <= VMOp::ST_W)
    return CtxMem;
  if (Op >= VMOp::ADD && Op <= VMOp::LI)
    return CtxAlu;
  if (Op >= VMOp::BEQ && Op <= VMOp::JMP)
    return CtxBranch;
  return CtxCall; // CALL, RJR, macros, SYS.
}

unsigned modelOf(unsigned Ctx, unsigned Stream) {
  return Ctx * NumStreams + Stream;
}

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

int64_t unzigzag(uint64_t U) {
  return static_cast<int64_t>((U >> 1) ^ (~(U & 1) + 1));
}

/// Writes \p V as 8-bit groups, each followed by a continuation bit.
void writeVarBits(BitWriter &BW, uint64_t V) {
  do {
    BW.writeBits(static_cast<uint32_t>(V & 0xFF), 8);
    V >>= 8;
    BW.writeBits(V ? 1 : 0, 1);
  } while (V);
}

uint64_t readVarBits(BitReader &BR) {
  uint64_t V = 0;
  unsigned Shift = 0;
  for (;;) {
    V |= static_cast<uint64_t>(BR.readBits(8)) << Shift;
    if (!BR.readBit())
      return V;
    Shift += 8;
    if (Shift >= 64)
      decodeFail("brisc-ctx: literal overflows 64 bits");
  }
}

/// The MTF symbol for one field token (what the per-model tables code).
uint64_t fieldSymbol(Stream S, int64_t FieldVal) {
  return S == StreamImm ? zigzag(FieldVal)
                        : static_cast<uint64_t>(FieldVal);
}

Stream streamOf(FieldKind K) {
  switch (K) {
  case FieldKind::Reg:
    return StreamReg;
  case FieldKind::Imm:
    return StreamImm;
  case FieldKind::Label:
  case FieldKind::Func:
    return StreamTarget;
  case FieldKind::None:
    break;
  }
  ccomp_unreachable("fieldless kind has no stream");
}

void writeLiteral(BitWriter &BW, Stream S, uint64_t Sym) {
  switch (S) {
  case StreamOp:
    BW.writeBits(static_cast<uint32_t>(Sym), 8);
    return;
  case StreamReg:
    BW.writeBits(static_cast<uint32_t>(Sym), 4);
    return;
  case StreamImm:
  case StreamTarget:
    writeVarBits(BW, Sym);
    return;
  }
}

uint64_t readLiteral(BitReader &BR, Stream S) {
  switch (S) {
  case StreamOp:
    return BR.readBits(8);
  case StreamReg:
    return BR.readBits(4);
  case StreamImm:
  case StreamTarget:
    return readVarBits(BR);
  }
  ccomp_unreachable("bad stream");
}

/// Per-model MTF table caps for the decoder: ops and registers have
/// closed alphabets; immediates and targets are bounded only by the
/// generic anti-bomb cap.
size_t tableCapOf(Stream S) {
  switch (S) {
  case StreamOp:
    return 256;
  case StreamReg:
    return 16;
  case StreamImm:
  case StreamTarget:
    return MTFDecoder::DefaultMaxTable;
  }
  ccomp_unreachable("bad stream");
}

/// One (model, symbol) emission in instruction order.
struct TokenRef {
  uint8_t Model;
  uint64_t Symbol;
};

std::vector<uint8_t> encodeCtx(const std::vector<Instr> &Code) {
  // Pass 1: run the MTF models over the token sequence to learn index
  // frequencies per model.
  std::vector<TokenRef> Tokens;
  Tokens.reserve(Code.size() * 3);
  unsigned Ctx = CtxStart;
  for (const Instr &In : Code) {
    Tokens.push_back({static_cast<uint8_t>(modelOf(Ctx, StreamOp)),
                      static_cast<uint64_t>(In.Op)});
    unsigned NF = vm::numFields(In.Op);
    const FieldKind *FK = vm::fieldKinds(In.Op);
    for (unsigned Fi = 0; Fi != NF; ++Fi) {
      Stream S = streamOf(FK[Fi]);
      Tokens.push_back({static_cast<uint8_t>(modelOf(Ctx, S)),
                        fieldSymbol(S, vm::getField(In, Fi))});
    }
    Ctx = classOf(In.Op);
  }

  MTFEncoder Learn[NumModels];
  std::vector<uint64_t> Freqs[NumModels];
  for (const TokenRef &T : Tokens) {
    uint32_t Idx = Learn[T.Model].encode(T.Symbol).Index;
    std::vector<uint64_t> &F = Freqs[T.Model];
    if (Idx >= F.size())
      F.resize(Idx + 1, 0);
    ++F[Idx];
  }

  std::vector<uint8_t> Lens[NumModels];
  std::unique_ptr<HuffmanCode> Codes[NumModels];
  for (unsigned M = 0; M != NumModels; ++M) {
    if (Freqs[M].empty())
      continue;
    Lens[M] = buildHuffmanLengths(Freqs[M], 15);
    Codes[M] =
        std::make_unique<HuffmanCode>(Lens[M], HuffmanCode::Use::Encode);
  }

  ByteWriter W;
  W.writeU8(FrameMagic0);
  W.writeU8(FrameMagic1);
  W.writeU8(FrameVersion);
  W.writeVarU(Code.size());
  for (unsigned M = 0; M != NumModels; ++M) {
    W.writeVarU(Lens[M].size());
    for (size_t I = 0; I < Lens[M].size(); I += 2) {
      uint8_t Packed = Lens[M][I];
      if (I + 1 < Lens[M].size())
        Packed = static_cast<uint8_t>(Packed | (Lens[M][I + 1] << 4));
      W.writeU8(Packed);
    }
  }

  // Pass 2: fresh MTF state, identical token sequence, emit the bits.
  MTFEncoder Emit[NumModels];
  BitWriter BW;
  for (const TokenRef &T : Tokens) {
    MTFToken Tok = Emit[T.Model].encode(T.Symbol);
    Codes[T.Model]->encode(BW, Tok.Index);
    if (Tok.Index == 0)
      writeLiteral(BW, static_cast<Stream>(T.Model % NumStreams), T.Symbol);
  }
  std::vector<uint8_t> Bits = BW.finish();
  W.writeVarU(Bits.size());
  W.writeBytes(Bits);
  return W.take();
}

std::vector<Instr> decodeCtxOrThrow(ByteSpan Frame) {
  ByteReader R(Frame);
  if (R.readU8() != FrameMagic0 || R.readU8() != FrameMagic1)
    decodeFail("brisc-ctx: bad magic");
  if (R.readU8() != FrameVersion)
    decodeFail("brisc-ctx: unsupported version");
  uint64_t InstrCount = R.readVarU();

  std::unique_ptr<HuffmanCode> Codes[NumModels];
  for (unsigned M = 0; M != NumModels; ++M) {
    uint64_t NumSyms = R.readVarU();
    if (NumSyms == 0)
      continue;
    if (NumSyms > (uint64_t(1) << 20))
      decodeFail("brisc-ctx: inflated model alphabet");
    std::vector<uint8_t> Packed = R.readBytes((NumSyms + 1) / 2);
    std::vector<uint8_t> Lens(NumSyms);
    for (size_t I = 0; I != Lens.size(); ++I)
      Lens[I] = static_cast<uint8_t>(I % 2 ? Packed[I / 2] >> 4
                                           : Packed[I / 2] & 15);
    if (!HuffmanCode::isValidLengthSet(Lens))
      decodeFail("brisc-ctx: oversubscribed Huffman lengths");
    Codes[M] = std::make_unique<HuffmanCode>(std::move(Lens),
                                             HuffmanCode::Use::Decode);
  }

  uint64_t BitBytes = R.readVarU();
  std::vector<uint8_t> Bits = R.readBytes(BitBytes);
  if (!R.atEnd())
    decodeFail("brisc-ctx: trailing bytes");
  // Every instruction consumes at least its opcode token's bit.
  if (InstrCount > Bits.size() * 8)
    decodeFail("brisc-ctx: inflated instruction count");

  std::unique_ptr<MTFDecoder> Dec[NumModels];
  for (unsigned M = 0; M != NumModels; ++M)
    Dec[M] = std::make_unique<MTFDecoder>(
        tableCapOf(static_cast<Stream>(M % NumStreams)));

  BitReader BR(Bits);
  auto Token = [&](unsigned M) -> uint64_t {
    if (!Codes[M])
      decodeFail("brisc-ctx: token from an empty model");
    unsigned Idx = Codes[M]->decode(BR);
    if (Idx == 0)
      return Dec[M]->decode(
          0, readLiteral(BR, static_cast<Stream>(M % NumStreams)));
    return Dec[M]->decode(Idx, 0);
  };

  std::vector<Instr> Out;
  // Reserve only what the bit budget could really hold (never the raw
  // claimed count): the loop throws on bit exhaustion long before a
  // lying InstrCount could force the vector to that size.
  Out.reserve(std::min<uint64_t>(InstrCount, Bits.size()));
  unsigned Ctx = CtxStart;
  for (uint64_t I = 0; I != InstrCount; ++I) {
    uint64_t OpSym = Token(modelOf(Ctx, StreamOp));
    if (OpSym >= static_cast<uint64_t>(VMOp::NumOps))
      decodeFail("brisc-ctx: bad opcode");
    Instr In;
    In.Op = static_cast<VMOp>(OpSym);
    unsigned NF = vm::numFields(In.Op);
    const FieldKind *FK = vm::fieldKinds(In.Op);
    for (unsigned Fi = 0; Fi != NF; ++Fi) {
      Stream S = streamOf(FK[Fi]);
      uint64_t Sym = Token(modelOf(Ctx, S));
      int64_t Val = S == StreamImm ? unzigzag(Sym)
                                   : static_cast<int64_t>(Sym);
      vm::setField(In, Fi, Val);
    }
    Out.push_back(In);
    Ctx = classOf(In.Op);
  }
  if (!BR.nearEnd())
    decodeFail("brisc-ctx: trailing bits");
  return Out;
}

/// The Codec adapter: fixed-width VM code in, context-coded frame out,
/// mirroring VMCompactCodec's contract (a payload that is not valid
/// fixed-width code is a fatal caller bug; a corrupt frame is a typed
/// DecodeError).
class BriscCtxCodec final : public Codec {
public:
  const char *name() const override { return "brisc-ctx"; }
  const char *description() const override {
    return "context-modeled instruction streams: per-previous-class "
           "MTF+Huffman over split opcode/register/operand streams";
  }
  PayloadKind payloadKind() const override { return PayloadKind::FixedCode; }

protected:
  std::vector<uint8_t> compressImpl(ByteSpan Payload) const override {
    Result<std::vector<Instr>> Code = vm::tryDecodeFunction(Payload);
    if (!Code.ok())
      reportFatal("brisc-ctx: payload is not fixed-width VM code: " +
                  Code.error().message());
    return encodeCtx(Code.value());
  }
  Result<std::vector<uint8_t>> tryDecompressImpl(ByteSpan F) const override {
    return tryDecode([&]() -> std::vector<uint8_t> {
      vm::VMFunction Fn;
      Fn.Code = decodeCtxOrThrow(F);
      return vm::encodeFunction(Fn);
    });
  }
};

} // namespace

namespace ccomp {
namespace pipeline {

std::unique_ptr<Codec> createBriscCtxCodec() {
  return std::make_unique<BriscCtxCodec>();
}

} // namespace pipeline
} // namespace ccomp
