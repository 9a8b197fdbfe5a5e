//===- pipeline/Payload.h - Canonical codec payloads ------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical byte payloads the codecs compress. Each registered
/// codec round-trips its payload byte-identically, so the payload — not
/// the codec's in-memory structures — is the unit the pipeline hashes,
/// compares, and chains.
///
/// The function image is the per-function payload for code compressors:
/// name, frame size, and the fixed-width code with branch targets
/// resolved to *instruction indices*. Resolving targets removes the
/// label table from the format, so compressors that renumber labels
/// (BRISC rebuilds them from basic-block offsets) still round-trip the
/// image byte-exactly.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_PIPELINE_PAYLOAD_H
#define CCOMP_PIPELINE_PAYLOAD_H

#include "ir/IR.h"
#include "pipeline/Codec.h"
#include "support/Error.h"
#include "support/Span.h"
#include "vm/Program.h"

#include <vector>

namespace ccomp {
namespace pipeline {

/// Encodes \p F as a canonical function image. Branch targets must be
/// resolvable through F.LabelPos (a violation is a caller bug).
std::vector<uint8_t> encodeFuncImage(const vm::VMFunction &F);

/// Decodes a function image of unknown provenance back into a linked
/// function, rebuilding the label table from the branch targets (one
/// label per distinct target, in instruction order). Corrupt bytes
/// yield a typed DecodeError.
Result<vm::VMFunction> tryDecodeFuncImage(ByteSpan Bytes);

/// Builds the payload list \p C expects from one corpus program: one
/// payload per function for per-function codecs, a single flat module
/// container for module codecs. \p M may be null unless the codec takes
/// Module payloads.
std::vector<std::vector<uint8_t>> makePayloads(const Codec &C,
                                               const vm::VMProgram &P,
                                               const ir::Module *M);

//===----------------------------------------------------------------------===//
// Page-chunked payloads (sub-function fault granularity)
//===----------------------------------------------------------------------===//

/// One page of a paged function: the instructions
/// [FirstInstr, FirstInstr + Code.size()) of the body, with branch
/// targets still expressed as function-label indices.
struct PageChunk {
  uint32_t FirstInstr = 0;
  std::vector<vm::Instr> Code;
};

/// Splits \p F at branch-label boundaries into basic blocks and greedily
/// packs adjacent blocks into pages holding at most \p TargetBytes of
/// fixed-width encoded code. A single block larger than the target still
/// forms one (oversized) page, so every split is a valid partition.
/// TargetBytes == 0 disables the limit: one page spans the whole
/// function.
std::vector<PageChunk> splitFunctionPages(const vm::VMFunction &F,
                                          size_t TargetBytes);

struct FunctionProfile;

/// Profile-guided variant. With a usable \p Profile (block/edge shapes
/// matching F, some nonzero heat, and a nonzero target) the cut points
/// are chosen by a dynamic program that clusters co-hot blocks onto
/// shared pages: a page containing any hot block costs its decoded
/// bytes plus one fault, a cut between source-order neighbours costs
/// their observed transfer affinity, and cold blocks are free — so hot
/// chains stay whole while cold arms split off. Every page is still a
/// run of adjacent blocks under the same TargetBytes budget (one
/// oversized block may form its own page), so the result is a valid
/// source-order partition: the manifest page table, the rank-rewritten
/// branch-target encoding, and the span-based interpreter need no
/// changes. With a null/unusable profile this is bit-identical to the
/// greedy overload.
std::vector<PageChunk> splitFunctionPages(const vm::VMFunction &F,
                                          size_t TargetBytes,
                                          const FunctionProfile *Profile);

/// Encodes one page's instructions as the payload kind \p K expects:
/// fixed-width code for Raw/FixedCode chains, a self-contained function
/// image for FuncImage chains. Image payloads rewrite each branch target
/// to its rank among the sorted distinct function-label indices the page
/// references (the image format validates targets against the page's own
/// length, which whole-function label indices would violate); the
/// rank -> label-index list is returned through \p PageLabels (required
/// for FuncImage, ignored otherwise) and must be presented back to
/// tryDecodePagePayload. \p K must not be Module.
std::vector<uint8_t> encodePagePayload(PayloadKind K,
                                       const std::vector<vm::Instr> &Code,
                                       std::vector<uint32_t> *PageLabels);

/// The last step of every image-page decode: rewrites each branch target
/// of \p Code from the in-page rank its image carried (an instruction
/// index into the page, by encodePagePayload's construction) to the
/// function-label index PageLabels[rank]. A rank past the page's code or
/// past \p PageLabels throws DecodeError.
void remapPageRanks(std::vector<vm::Instr> &Code,
                    const std::vector<uint32_t> &PageLabels);

/// Decodes a page payload produced by encodePagePayload back into
/// instructions whose branch targets are function-label indices again.
/// Corrupt bytes — including rank targets outside \p PageLabels — yield
/// a typed DecodeError.
Result<std::vector<vm::Instr>>
tryDecodePagePayload(PayloadKind K, ByteSpan Bytes,
                     const std::vector<uint32_t> &PageLabels);

} // namespace pipeline
} // namespace ccomp

#endif // CCOMP_PIPELINE_PAYLOAD_H
