//===- wire/Wire.cpp - The wire-format code compressor ------------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Container layout:
//   u32 magic "CCWF"; u8 pipeline level
//   structure stream (flated): symbols, globals, function headers
//   shape dictionary stream (flated): tree patterns in first-use order
//   token streams: pattern-id stream + one literal stream per operator,
//   each encoded per the pipeline level and flated in isolation.
//
// Every token stream is a sequence of unsigned values (pattern ids,
// literal values zig-zagged, symbol indices, label ids). The MTF level
// rewrites them as move-to-front indices with 0 = "new symbol" followed
// by the symbol itself; the Full level Huffman-codes the MTF indices
// (alphabet 0..255 where 255 escapes larger indices) exactly as the
// paper's step 4 prescribes, leaving the escaped values as varints.
//
//===----------------------------------------------------------------------===//

#include "wire/Wire.h"

#include "flate/Flate.h"
#include "ir/Opcode.h"
#include "support/BitStream.h"
#include "support/ByteIO.h"
#include "support/Error.h"
#include "support/Huffman.h"
#include "support/MTF.h"
#include "support/Support.h"

#include <map>

using namespace ccomp;
using namespace ccomp::wire;
using ir::Op;
using ir::Tree;
using ir::TypeSuffix;

namespace {

constexpr uint32_t Magic = 0x46574343;     // "CCWF".
constexpr uint32_t FlatMagic = 0x4D464343; // "CCFM" (flat module).
constexpr uint8_t PatternStreamKey = 0xFF;

//===----------------------------------------------------------------------===//
// Shapes (patternized trees)
//===----------------------------------------------------------------------===//

/// Serializes the patternized shape of \p T (operators and suffixes, no
/// literals) in prefix order.
void shapeOf(const Tree *T, std::vector<uint8_t> &Out) {
  Out.push_back(static_cast<uint8_t>(T->O));
  Out.push_back(static_cast<uint8_t>(T->Suffix));
  for (unsigned I = 0; I != T->NKids; ++I)
    shapeOf(T->Kids[I], Out);
}

/// Zig-zag encoding for literal values.
uint64_t zz(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}
int64_t unzz(uint64_t Z) {
  return static_cast<int64_t>((Z >> 1) ^ (~(Z & 1) + 1));
}

//===----------------------------------------------------------------------===//
// Token stream encoding (per pipeline level)
//===----------------------------------------------------------------------===//

std::vector<uint8_t> encodeRaw(const std::vector<uint64_t> &Vals) {
  ByteWriter W;
  W.writeVarU(Vals.size());
  for (uint64_t V : Vals)
    W.writeVarU(V);
  return W.take();
}

std::vector<uint64_t> decodeRaw(ByteReader &R) {
  size_t N = R.readVarU();
  // Every value occupies at least one byte, so an element count larger
  // than the remaining input is corrupt; checking up front stops a
  // corrupt count from demanding a huge reservation.
  if (N > R.remaining())
    decodeFail("wire: raw stream count exceeds input");
  std::vector<uint64_t> Out;
  Out.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Out.push_back(R.readVarU());
  return Out;
}

std::vector<uint8_t> encodeMTF(const std::vector<uint64_t> &Vals) {
  // Indices and new-symbol values go to separate sections so the
  // downstream flate stage sees two homogeneous streams (the same
  // stream-separation insight the wire format is built on).
  MTFEncoder Enc;
  ByteWriter Idx, NewSyms;
  for (uint64_t V : Vals) {
    MTFToken T = Enc.encode(V);
    Idx.writeVarU(T.Index);
    if (T.Index == 0)
      NewSyms.writeVarU(V);
  }
  ByteWriter W;
  W.writeVarU(Vals.size());
  W.writeVarU(Idx.size());
  W.writeBytes(Idx.bytes());
  W.writeBytes(NewSyms.bytes());
  return W.take();
}

std::vector<uint64_t> decodeMTF(ByteReader &R) {
  size_t N = R.readVarU();
  size_t IdxLen = R.readVarU();
  std::vector<uint8_t> IdxBytes = R.readBytes(IdxLen);
  // Each token takes at least one index byte.
  if (N > IdxBytes.size())
    decodeFail("wire: MTF token count exceeds index bytes");
  ByteReader IdxR(IdxBytes);
  std::vector<uint64_t> Out;
  Out.reserve(N);
  // At most one new symbol per token: N bounds the decoder table.
  MTFDecoder Dec(N);
  for (size_t I = 0; I != N; ++I) {
    uint32_t Idx = static_cast<uint32_t>(IdxR.readVarU());
    uint64_t NewSym = Idx == 0 ? R.readVarU() : 0;
    Out.push_back(Dec.decode(Idx, NewSym));
  }
  return Out;
}

/// Full pipeline: MTF, then canonical Huffman over the MTF indices.
/// Index alphabet is 0..255; index >= 255 is coded as the escape symbol
/// 255 followed by a varint of the full index in the escape section.
/// Streams too small to amortize the Huffman table fall back to plain
/// MTF varints; a leading submode byte records the choice.
std::vector<uint8_t> encodeHuffmanBody(const std::vector<uint64_t> &Vals) {
  MTFEncoder Enc;
  std::vector<uint32_t> Indices;
  ByteWriter Escapes;
  Indices.reserve(Vals.size());
  for (uint64_t V : Vals) {
    MTFToken T = Enc.encode(V);
    Indices.push_back(T.Index);
    if (T.Index == 0)
      Escapes.writeVarU(V);
    else if (T.Index >= 255)
      Escapes.writeVarU(T.Index);
  }

  std::vector<uint64_t> Freq(256, 0);
  for (uint32_t I : Indices)
    ++Freq[I >= 255 ? 255 : I];
  HuffmanCode Code(buildHuffmanLengths(Freq, 15), HuffmanCode::Use::Encode);

  BitWriter BW;
  for (uint32_t I : Indices)
    Code.encode(BW, I >= 255 ? 255 : I);
  std::vector<uint8_t> Bits = BW.finish();

  ByteWriter W;
  W.writeVarU(Vals.size());
  // Code length table: 4-bit lengths with 15-as-zero-run escape reused
  // from the flate header encoding, byte-packed here for simplicity.
  for (unsigned I = 0; I != 256; ++I)
    W.writeU8(Code.lengths()[I]);
  W.writeVarU(Bits.size());
  W.writeBytes(Bits);
  W.writeVarU(Escapes.size());
  W.writeBytes(Escapes.bytes());
  return W.take();
}

std::vector<uint8_t> encodeHuffman(const std::vector<uint64_t> &Vals) {
  // The full pipeline picks, per stream, whichever coding survives the
  // downstream flate stage smallest: plain varints (when the raw values
  // carry LZ-visible sequence structure MTF would destroy), MTF varints
  // (high-locality streams), or MTF + Huffman (skewed index
  // distributions; the Huffman bitstream itself no longer deflates).
  // This is the "should the coder use MTF?" question of the paper's
  // design-space section, answered empirically per stream.
  struct Cand {
    uint8_t Submode;
    std::vector<uint8_t> Body;
  };
  Cand Cands[3] = {{0, encodeMTF(Vals)},
                   {1, encodeHuffmanBody(Vals)},
                   {2, encodeRaw(Vals)}};
  const Cand *Best = nullptr;
  size_t BestZ = 0;
  for (const Cand &C : Cands) {
    ByteWriter W;
    W.writeU8(C.Submode);
    W.writeBytes(C.Body);
    size_t Z = flate::compressedSize(W.bytes());
    if (!Best || Z < BestZ) {
      Best = &C;
      BestZ = Z;
    }
  }
  ByteWriter W;
  W.writeU8(Best->Submode);
  W.writeBytes(Best->Body);
  return W.take();
}

std::vector<uint64_t> decodeHuffmanBody(ByteReader &R) {
  size_t N = R.readVarU();
  std::vector<uint8_t> Lens(256);
  for (unsigned I = 0; I != 256; ++I)
    Lens[I] = R.readU8();
  std::vector<uint64_t> Out;
  if (N == 0) {
    // Skip the (empty) payload sections.
    size_t BitLen = R.readVarU();
    R.readBytes(BitLen);
    size_t EscLen = R.readVarU();
    R.readBytes(EscLen);
    return Out;
  }
  if (!HuffmanCode::isValidLengthSet(Lens))
    decodeFail("wire: corrupt Huffman table");
  HuffmanCode Code(std::move(Lens), HuffmanCode::Use::Decode);
  size_t BitLen = R.readVarU();
  std::vector<uint8_t> Bits = R.readBytes(BitLen);
  size_t EscLen = R.readVarU();
  std::vector<uint8_t> Esc = R.readBytes(EscLen);
  // Each token consumes at least one bit of the code section.
  if (N > Bits.size() * 8)
    decodeFail("wire: Huffman token count exceeds code bits");
  Out.reserve(N);

  BitReader BR(Bits);
  ByteReader ER(Esc);
  // At most one new symbol per token: N bounds the decoder table.
  MTFDecoder Dec(N);
  for (size_t I = 0; I != N; ++I) {
    unsigned Sym = Code.decode(BR);
    uint32_t Index = Sym;
    uint64_t NewSym = 0;
    if (Sym == 255)
      Index = static_cast<uint32_t>(ER.readVarU());
    if (Index == 0)
      NewSym = ER.readVarU();
    Out.push_back(Dec.decode(Index, NewSym));
  }
  return Out;
}

std::vector<uint64_t> decodeHuffman(ByteReader &R) {
  uint8_t Submode = R.readU8();
  if (Submode == 0)
    return decodeMTF(R);
  if (Submode == 2)
    return decodeRaw(R);
  return decodeHuffmanBody(R);
}

std::vector<uint8_t> encodeStream(const std::vector<uint64_t> &Vals,
                                  Pipeline P) {
  switch (P) {
  case Pipeline::Naive:
  case Pipeline::Streams:
    return encodeRaw(Vals);
  case Pipeline::StreamsMTF:
    return encodeMTF(Vals);
  case Pipeline::Full:
    return encodeHuffman(Vals);
  }
  ccomp_unreachable("bad pipeline level");
}

std::vector<uint64_t> decodeStream(ByteReader &R, Pipeline P) {
  switch (P) {
  case Pipeline::Naive:
  case Pipeline::Streams:
    return decodeRaw(R);
  case Pipeline::StreamsMTF:
    return decodeMTF(R);
  case Pipeline::Full:
    return decodeHuffman(R);
  }
  ccomp_unreachable("bad pipeline level");
}

//===----------------------------------------------------------------------===//
// Module serialization
//===----------------------------------------------------------------------===//

std::vector<uint8_t> buildStructure(const ir::Module &M) {
  ByteWriter W;
  W.writeVarU(M.Symbols.size());
  for (const ir::Symbol &S : M.Symbols) {
    W.writeStr(S.Name);
    W.writeU8(S.IsFunction ? 1 : 0);
  }
  W.writeVarU(M.Globals.size());
  for (const ir::Global &G : M.Globals) {
    W.writeVarU(G.SymbolIndex);
    W.writeVarU(G.Size);
    W.writeVarU(G.Align);
    W.writeVarU(G.Init.size());
    W.writeBytes(G.Init);
  }
  W.writeVarU(M.Functions.size());
  for (const auto &F : M.Functions) {
    W.writeStr(F->Name);
    W.writeVarU(F->FrameSize);
    W.writeVarU(F->ParamBytes);
    W.writeVarU(F->NumLabels);
    W.writeVarU(F->ParamSlots.size());
    for (uint32_t S : F->ParamSlots)
      W.writeVarU(S);
    W.writeVarU(F->Forest.size());
  }
  return W.take();
}

/// Collects literals of \p T in prefix order into the per-op streams.
void collectLiterals(const Tree *T,
                     std::map<uint8_t, std::vector<uint64_t>> &Lits) {
  if (ir::hasLiteral(T->O))
    Lits[static_cast<uint8_t>(T->O)].push_back(zz(T->Literal));
  for (unsigned I = 0; I != T->NKids; ++I)
    collectLiterals(T->Kids[I], Lits);
}

/// Deepest tree a shape may describe; corrupt shapes past this are
/// rejected rather than risking unbounded recursion.
constexpr unsigned MaxTreeDepth = 4096;

/// Rebuilds one tree from shape bytes (prefix order), consuming literals
/// from the per-op streams.
const uint8_t *rebuildTree(ir::Function &F, const uint8_t *Shape,
                           const uint8_t *ShapeEnd,
                           std::map<uint8_t, std::vector<uint64_t>> &Lits,
                           std::map<uint8_t, size_t> &LitPos, Tree *&Out,
                           std::string &Error, unsigned Depth = 0) {
  if (Depth > MaxTreeDepth) {
    Error = "shape nesting too deep";
    return nullptr;
  }
  if (Shape + 2 > ShapeEnd) {
    Error = "truncated shape";
    return nullptr;
  }
  Op O = static_cast<Op>(Shape[0]);
  TypeSuffix S = static_cast<TypeSuffix>(Shape[1]);
  Shape += 2;
  if (O >= Op::NumOps || S >= TypeSuffix::NumSuffixes) {
    Error = "corrupt shape bytes";
    return nullptr;
  }
  Tree *T = F.newTree(O, S);
  if (ir::hasLiteral(O)) {
    uint8_t Key = static_cast<uint8_t>(O);
    size_t &Pos = LitPos[Key];
    std::vector<uint64_t> &Vals = Lits[Key];
    if (Pos >= Vals.size()) {
      Error = "literal stream underflow";
      return nullptr;
    }
    T->Literal = unzz(Vals[Pos++]);
  }
  unsigned Kids = ir::numKids(O);
  if (O == Op::RET && S == TypeSuffix::V)
    Kids = 0;
  for (unsigned I = 0; I != Kids; ++I) {
    Tree *Kid = nullptr;
    Shape = rebuildTree(F, Shape, ShapeEnd, Lits, LitPos, Kid, Error,
                        Depth + 1);
    if (!Shape)
      return nullptr;
    T->Kids[I] = Kid;
  }
  T->NKids = static_cast<uint8_t>(Kids);
  Out = T;
  return Shape;
}

//===----------------------------------------------------------------------===//
// Flat module container (shared by the Naive level and serializeModule)
//===----------------------------------------------------------------------===//

/// Appends the flat body: structure table, then per tree its shape and
/// literals inline.
void writeFlatBody(const ir::Module &M, ByteWriter &W) {
  W.writeBytes(buildStructure(M));
  for (const auto &F : M.Functions) {
    for (const Tree *T : F->Forest) {
      std::vector<uint8_t> Shape;
      shapeOf(T, Shape);
      W.writeVarU(Shape.size() / 2);
      W.writeBytes(Shape);
      // Literals inline, grouped by op key in prefix order.
      std::map<uint8_t, std::vector<uint64_t>> Tmp;
      collectLiterals(T, Tmp);
      for (auto &[K, Vs] : Tmp)
        for (uint64_t V : Vs) {
          (void)K;
          W.writeVarU(V);
        }
    }
  }
}

/// Reads the structure table into \p M; forest sizes go to
/// \p ForestSizes (one per function).
void readStructure(ByteReader &SR, ir::Module &M,
                   std::vector<size_t> &ForestSizes) {
  size_t NSyms = SR.readVarU();
  for (size_t I = 0; I != NSyms; ++I) {
    ir::Symbol S;
    S.Name = SR.readStr();
    S.IsFunction = SR.readU8() != 0;
    M.Symbols.push_back(std::move(S));
  }
  size_t NGlobals = SR.readVarU();
  for (size_t I = 0; I != NGlobals; ++I) {
    ir::Global G;
    G.SymbolIndex = static_cast<uint32_t>(SR.readVarU());
    G.Size = static_cast<uint32_t>(SR.readVarU());
    G.Align = static_cast<uint32_t>(SR.readVarU());
    size_t InitLen = SR.readVarU();
    G.Init = SR.readBytes(InitLen);
    M.Globals.push_back(std::move(G));
  }
  size_t NFuncs = SR.readVarU();
  for (size_t I = 0; I != NFuncs; ++I) {
    std::string Name = SR.readStr();
    ir::Function *F =
        M.Functions.emplace_back(std::make_unique<ir::Function>(Name))
            .get();
    F->FrameSize = static_cast<uint32_t>(SR.readVarU());
    F->ParamBytes = static_cast<uint32_t>(SR.readVarU());
    F->NumLabels = static_cast<uint32_t>(SR.readVarU());
    size_t NSlots = SR.readVarU();
    for (size_t K = 0; K != NSlots; ++K)
      F->ParamSlots.push_back(static_cast<uint32_t>(SR.readVarU()));
    ForestSizes.push_back(SR.readVarU());
  }
}

/// Parses a flat body; returns nullptr and sets \p Error on corruption.
std::unique_ptr<ir::Module> readFlatBody(ByteReader &SR,
                                         std::string &Error) {
  auto M = std::make_unique<ir::Module>();
  std::vector<size_t> ForestSizes;
  readStructure(SR, *M, ForestSizes);
  for (size_t FI = 0; FI != M->Functions.size(); ++FI) {
    ir::Function &F = *M->Functions[FI];
    for (size_t TI = 0; TI != ForestSizes[FI]; ++TI) {
      size_t Nodes = SR.readVarU();
      // Guard the Nodes * 2 byte count against overflow/inflation.
      if (Nodes > SR.remaining() / 2) {
        Error = "corrupt shape size";
        return nullptr;
      }
      std::vector<uint8_t> Shape = SR.readBytes(Nodes * 2);
      // Literals were written grouped by op key in prefix-order within
      // each key; reconstruct with the same grouping.
      std::map<uint8_t, std::vector<uint64_t>> Lits;
      // First pass: count literals per op from the shape.
      for (size_t K = 0; K != Nodes; ++K) {
        Op O = static_cast<Op>(Shape[K * 2]);
        if (O >= Op::NumOps) {
          Error = "corrupt shape";
          return nullptr;
        }
        if (ir::hasLiteral(O))
          Lits[static_cast<uint8_t>(O)].push_back(0);
      }
      for (auto &[K, Vs] : Lits)
        for (uint64_t &V : Vs) {
          (void)K;
          V = SR.readVarU();
        }
      std::map<uint8_t, size_t> LitPos;
      Tree *T = nullptr;
      const uint8_t *End = Shape.data() + Shape.size();
      if (!rebuildTree(F, Shape.data(), End, Lits, LitPos, T, Error))
        return nullptr;
      F.Forest.push_back(T);
    }
  }
  return M;
}

} // namespace

//===----------------------------------------------------------------------===//
// Compression
//===----------------------------------------------------------------------===//

std::vector<uint8_t> wire::compress(const ir::Module &M, Pipeline P,
                                    Stats *Out) {
  // Intern tree shapes and build the pattern-id and literal streams.
  std::map<std::vector<uint8_t>, uint32_t> ShapeIds;
  std::vector<std::vector<uint8_t>> Shapes;
  std::vector<uint64_t> PatternStream;
  std::map<uint8_t, std::vector<uint64_t>> LitStreams;

  size_t TreeCount = 0;
  for (const auto &F : M.Functions) {
    for (const Tree *T : F->Forest) {
      ++TreeCount;
      std::vector<uint8_t> Shape;
      shapeOf(T, Shape);
      auto [It, Inserted] =
          ShapeIds.insert({Shape, static_cast<uint32_t>(Shapes.size())});
      if (Inserted)
        Shapes.push_back(Shape);
      PatternStream.push_back(It->second);
      collectLiterals(T, LitStreams);
    }
  }

  // Shape dictionary bytes.
  ByteWriter ShapeW;
  ShapeW.writeVarU(Shapes.size());
  for (const auto &S : Shapes) {
    ShapeW.writeVarU(S.size() / 2); // Node count.
    ShapeW.writeBytes(S);
  }

  std::vector<uint8_t> Structure = buildStructure(M);

  ByteWriter File;
  File.writeU32(Magic);
  File.writeU8(static_cast<uint8_t>(P));

  auto AddStream = [&](const std::string &Name, uint8_t Key,
                       const std::vector<uint8_t> &Raw) {
    std::vector<uint8_t> Z = flate::compress(Raw);
    File.writeU8(Key);
    File.writeVarU(Z.size());
    File.writeBytes(Z);
    if (Out)
      Out->Streams.push_back({Name, Raw.size(), Z.size()});
  };

  if (P == Pipeline::Naive) {
    // Single stream: structure, shapes inline per tree, literals inline.
    ByteWriter W;
    writeFlatBody(M, W);
    File.writeVarU(1);
    AddStream("all", 0xFE, W.take());
  } else {
    File.writeVarU(3 + LitStreams.size());
    AddStream("structure", 0xFE, Structure);
    AddStream("shapes", 0xFD, ShapeW.take());
    AddStream("patterns", PatternStreamKey, encodeStream(PatternStream, P));
    for (auto &[Key, Vals] : LitStreams)
      AddStream(ir::opName(static_cast<Op>(Key)), Key,
                encodeStream(Vals, P));
  }

  std::vector<uint8_t> Bytes = File.take();
  if (Out) {
    Out->TotalBytes = Bytes.size();
    Out->PatternCount = Shapes.size();
    Out->TreeCount = TreeCount;
  }
  return Bytes;
}

//===----------------------------------------------------------------------===//
// Decompression
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<ir::Module> decompressImpl(ByteSpan Bytes,
                                           std::string &Error) {
  ByteReader R(Bytes);
  if (R.remaining() < 5 || R.readU32() != Magic) {
    Error = "bad wire magic";
    return nullptr;
  }
  Pipeline P = static_cast<Pipeline>(R.readU8());
  if (P > Pipeline::Full) {
    Error = "bad pipeline level";
    return nullptr;
  }

  size_t NumStreams = R.readVarU();
  std::map<uint8_t, std::vector<uint8_t>> Raw;
  for (size_t I = 0; I != NumStreams; ++I) {
    uint8_t Key = R.readU8();
    size_t Len = R.readVarU();
    Result<std::vector<uint8_t>> Z = flate::tryDecompress(R.readBytes(Len));
    if (!Z.ok()) {
      Error = Z.error().message();
      return nullptr;
    }
    Raw[Key] = Z.take();
  }

  if (P == Pipeline::Naive) {
    auto It = Raw.find(0xFE);
    if (It == Raw.end()) {
      Error = "missing stream";
      return nullptr;
    }
    ByteReader SR(It->second);
    return readFlatBody(SR, Error);
  }

  auto M = std::make_unique<ir::Module>();

  // --- Split-stream levels ------------------------------------------------
  auto Need = [&](uint8_t Key) -> std::vector<uint8_t> * {
    auto It = Raw.find(Key);
    if (It == Raw.end())
      return nullptr;
    return &It->second;
  };

  std::vector<uint8_t> *Structure = Need(0xFE);
  std::vector<uint8_t> *ShapesB = Need(0xFD);
  std::vector<uint8_t> *Patterns = Need(PatternStreamKey);
  if (!Structure || !ShapesB || !Patterns) {
    Error = "missing stream";
    return nullptr;
  }

  std::vector<size_t> ForestSizes;
  {
    ByteReader SR(*Structure);
    readStructure(SR, *M, ForestSizes);
  }

  // Shape dictionary.
  std::vector<std::vector<uint8_t>> Shapes;
  {
    ByteReader SR(*ShapesB);
    size_t N = SR.readVarU();
    for (size_t I = 0; I != N; ++I) {
      size_t Nodes = SR.readVarU();
      if (Nodes > SR.remaining() / 2) {
        Error = "corrupt shape size";
        return nullptr;
      }
      Shapes.push_back(SR.readBytes(Nodes * 2));
    }
  }

  // Token streams.
  std::vector<uint64_t> PatternStream;
  {
    ByteReader SR(*Patterns);
    PatternStream = decodeStream(SR, P);
  }
  std::map<uint8_t, std::vector<uint64_t>> LitStreams;
  for (auto &[Key, Body] : Raw) {
    if (Key >= 0xFD)
      continue;
    ByteReader SR(Body);
    LitStreams[Key] = decodeStream(SR, P);
  }
  std::map<uint8_t, size_t> LitPos;

  size_t PatPos = 0;
  for (size_t FI = 0; FI != M->Functions.size(); ++FI) {
    ir::Function &F = *M->Functions[FI];
    for (size_t TI = 0; TI != ForestSizes[FI]; ++TI) {
      if (PatPos >= PatternStream.size()) {
        Error = "pattern stream underflow";
        return nullptr;
      }
      uint64_t Id = PatternStream[PatPos++];
      if (Id >= Shapes.size()) {
        Error = "bad pattern id";
        return nullptr;
      }
      const std::vector<uint8_t> &Shape = Shapes[Id];
      Tree *T = nullptr;
      if (!rebuildTree(F, Shape.data(), Shape.data() + Shape.size(),
                       LitStreams, LitPos, T, Error))
        return nullptr;
      F.Forest.push_back(T);
    }
  }
  return M;
}

} // namespace

std::unique_ptr<ir::Module> wire::decompress(ByteSpan Bytes,
                                             std::string &Error) {
  // The readers throw DecodeError on truncated or inflated fields; this
  // frame boundary converts every such failure into the (nullptr, Error)
  // contract so no malformed container can abort the process.
  Error.clear();
  try {
    return decompressImpl(Bytes, Error);
  } catch (const DecodeError &E) {
    Error = E.message();
  } catch (const std::bad_alloc &) {
    Error = "wire: allocation failed";
  } catch (const std::length_error &) {
    Error = "wire: length overflow";
  }
  return nullptr;
}

void wire::compressTo(const ir::Module &M, Sink &Out, Pipeline P,
                      Stats *StatsOut) {
  Out.write(compress(M, P, StatsOut));
}

//===----------------------------------------------------------------------===//
// Flat module container (public entry points)
//===----------------------------------------------------------------------===//

std::vector<uint8_t> wire::serializeModule(const ir::Module &M) {
  ByteWriter W;
  W.writeU32(FlatMagic);
  writeFlatBody(M, W);
  return W.take();
}

Result<std::unique_ptr<ir::Module>>
wire::tryDeserializeModule(ByteSpan Bytes) {
  return tryDecode([&]() -> std::unique_ptr<ir::Module> {
    ByteReader R(Bytes);
    if (R.readU32() != FlatMagic)
      decodeFail("flat module: bad magic");
    std::string Error;
    std::unique_ptr<ir::Module> M = readFlatBody(R, Error);
    if (!M)
      decodeFail("flat module: " + Error);
    return M;
  });
}
