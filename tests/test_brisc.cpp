//===- tests/test_brisc.cpp - BRISC compressor/interpreter tests -------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "brisc/Brisc.h"
#include "brisc/CostModel.h"
#include "brisc/Interp.h"
#include "flate/Flate.h"
#include "vm/Encode.h"

using namespace ccomp;
using namespace ccomp::test;

namespace {

const char *Program = R"(
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int gcd(int a, int b) { while (b) { int t = a % b; a = b; b = t; } return a; }
int table[32];
char text[] = "brisc interpretable code";
int strsum(char *s) { int n = 0; while (*s) n += *s++; return n; }
int main(void) {
  int i, s = 0;
  for (i = 0; i < 16; i++) table[i] = fib(i % 10) + gcd(i * 3 + 1, i + 2);
  for (i = 0; i < 16; i++) s += table[i];
  s += strsum(text);
  print_int(s);
  print_char('\n');
  return s & 255;
}
)";

vm::VMProgram buildProgram() { return buildVM(Program); }

} // namespace

TEST(Brisc, PatternBasics) {
  brisc::Pattern P = brisc::Pattern::base(vm::VMOp::LD_W);
  EXPECT_TRUE(P.wellFormed());
  EXPECT_TRUE(P.allDataOps());
  // Base ld.iw: rd nibble + imm 4 bytes + rs nibble = 5 operand bytes.
  EXPECT_EQ(P.operandBytes(), 5u);

  vm::Instr In;
  In.Op = vm::VMOp::LD_W;
  In.Rd = vm::N0;
  In.Rs1 = vm::SP;
  In.Imm = 4;
  EXPECT_TRUE(P.matches(&In, 1));

  // Specialize the base register to sp and narrow the offset to a
  // scaled nibble: [ld.iw *,*x4(sp)].
  brisc::Pattern Q = P;
  Q.Elems[0].SpecMask |= 1u << 2; // rs1 field (assembly position 2).
  Q.Elems[0].SpecVals[2] = vm::SP;
  Q.Elems[0].Widths[1] = brisc::Width::NibX4;
  EXPECT_TRUE(Q.matches(&In, 1));
  // rd nibble + imm nibble = 1 byte.
  EXPECT_EQ(Q.operandBytes(), 1u);

  In.Imm = 6; // Not a multiple of 4: no longer matches the x4 width.
  EXPECT_FALSE(Q.matches(&In, 1));
  In.Imm = 64; // 64/4 = 16 overflows the nibble.
  EXPECT_FALSE(Q.matches(&In, 1));
}

TEST(Brisc, PatternSerializeRoundTrip) {
  brisc::Pattern P = brisc::Pattern::base(vm::VMOp::ADD);
  brisc::Pattern Q = brisc::Pattern::base(vm::VMOp::SPILL);
  Q.Elems[0].SpecMask = 1;
  Q.Elems[0].SpecVals[0] = vm::RA;
  brisc::Pattern Combined;
  Combined.Elems = P.Elems;
  Combined.Elems.push_back(Q.Elems[0]);

  ByteWriter W;
  Combined.serialize(W);
  ByteReader R(W.bytes());
  brisc::Pattern Back = brisc::Pattern::deserialize(R);
  EXPECT_EQ(Back.key(), Combined.key());
  EXPECT_TRUE(R.atEnd());
}

TEST(Brisc, OperandPackRoundTrip) {
  brisc::Pattern P;
  brisc::SpecInstr A;
  A.Op = vm::VMOp::ADDI;
  A.Widths[0] = brisc::Width::Nib;  // rd
  A.Widths[1] = brisc::Width::Nib;  // rs1
  A.Widths[2] = brisc::Width::B1;   // imm
  P.Elems.push_back(A);
  brisc::SpecInstr Bm;
  Bm.Op = vm::VMOp::MOV;
  Bm.Widths[0] = brisc::Width::Nib;
  Bm.Widths[1] = brisc::Width::Nib;
  P.Elems.push_back(Bm);
  ASSERT_TRUE(P.wellFormed());

  vm::Instr Seq[2];
  Seq[0].Op = vm::VMOp::ADDI;
  Seq[0].Rd = vm::N3;
  Seq[0].Rs1 = vm::N4;
  Seq[0].Imm = -5;
  Seq[1].Op = vm::VMOp::MOV;
  Seq[1].Rd = vm::N0;
  Seq[1].Rs1 = vm::N3;
  ASSERT_TRUE(P.matches(Seq, 2));

  ByteWriter W;
  brisc::packOperands(P, Seq, W);
  EXPECT_EQ(W.size(), P.operandBytes());

  std::vector<vm::Instr> Out;
  size_t Used = brisc::unpackOperands(P, W.bytes().data(), W.size(), Out);
  EXPECT_EQ(Used, W.size());
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0], Seq[0]);
  EXPECT_EQ(Out[1], Seq[1]);
}

TEST(Brisc, LoaderRoundTripExecution) {
  vm::VMProgram P = buildProgram();
  vm::RunResult Orig = vm::runProgram(P);
  ASSERT_TRUE(Orig.Ok) << Orig.Trap;

  brisc::CompressStats Stats;
  brisc::BriscProgram B = brisc::compress(P, brisc::CompressOptions(),
                                          &Stats);
  vm::VMProgram Decoded = brisc::decodeToVM(B);
  vm::RunResult Back = vm::runProgram(Decoded);
  ASSERT_TRUE(Back.Ok) << Back.Trap;
  EXPECT_EQ(Back.ExitCode, Orig.ExitCode);
  EXPECT_EQ(Back.Output, Orig.Output);
  EXPECT_GT(Stats.DictPatterns,
            static_cast<size_t>(vm::VMOp::NumOps));
}

TEST(Brisc, ExactInstructionRoundTripWithoutEpi) {
  vm::VMProgram P = buildProgram();
  brisc::CompressOptions Opts;
  Opts.EnableEpi = false;
  brisc::BriscProgram B = brisc::compress(P, Opts);
  vm::VMProgram Decoded = brisc::decodeToVM(B);
  ASSERT_EQ(Decoded.Functions.size(), P.Functions.size());
  for (size_t I = 0; I != P.Functions.size(); ++I) {
    const vm::VMFunction &A = P.Functions[I];
    const vm::VMFunction &C = Decoded.Functions[I];
    ASSERT_EQ(A.Code.size(), C.Code.size()) << A.Name;
    for (size_t K = 0; K != A.Code.size(); ++K) {
      vm::Instr X = A.Code[K], Y = C.Code[K];
      // Branch targets use different label numbering; compare resolved
      // positions instead.
      if (vm::isBranch(X.Op)) {
        ASSERT_EQ(X.Op, Y.Op);
        EXPECT_EQ(A.LabelPos[X.Target], C.LabelPos[Y.Target])
            << A.Name << " instr " << K;
        X.Target = Y.Target = 0;
      }
      EXPECT_EQ(X, Y) << A.Name << " instr " << K;
    }
  }
}

TEST(Brisc, SerializeDeserializeExecutes) {
  vm::VMProgram P = buildProgram();
  brisc::BriscProgram B = brisc::compress(P);
  std::vector<uint8_t> Image = B.serialize(/*IncludeData=*/true);
  brisc::BriscProgram B2 = brisc::BriscProgram::deserialize(Image);
  vm::RunResult R1 = brisc::interpret(B);
  vm::RunResult R2 = brisc::interpret(B2);
  ASSERT_TRUE(R1.Ok) << R1.Trap;
  ASSERT_TRUE(R2.Ok) << R2.Trap;
  EXPECT_EQ(R1.ExitCode, R2.ExitCode);
  EXPECT_EQ(R1.Output, R2.Output);
}

TEST(Brisc, InterpreterMatchesVM) {
  vm::VMProgram P = buildProgram();
  vm::RunResult VM = vm::runProgram(P);
  ASSERT_TRUE(VM.Ok) << VM.Trap;
  brisc::BriscProgram B = brisc::compress(P);
  vm::RunResult BR = brisc::interpret(B);
  ASSERT_TRUE(BR.Ok) << BR.Trap;
  EXPECT_EQ(BR.ExitCode, VM.ExitCode);
  EXPECT_EQ(BR.Output, VM.Output);
}

TEST(Brisc, CompressionShrinksCode) {
  // Dictionary and Markov tables only amortize on realistically sized
  // inputs (the paper's own toy example ends with "the program, as
  // given, remains").
  vm::VMProgram P = buildVM(syntheticSource(60));
  size_t Native = vm::encodeProgram(P).size();
  brisc::BriscProgram B = brisc::compress(P);
  size_t Brisc = B.codeSegmentBytes();
  EXPECT_LT(Brisc, Native * 3 / 4);

  vm::RunResult VM = vm::runProgram(P);
  vm::RunResult BR = brisc::interpret(B);
  ASSERT_TRUE(VM.Ok);
  ASSERT_TRUE(BR.Ok) << BR.Trap;
  EXPECT_EQ(BR.ExitCode, VM.ExitCode);
}

TEST(Brisc, AbundantMemoryAdoptsMorePatterns) {
  vm::VMProgram P = buildVM(syntheticSource(60));
  brisc::CompressOptions Normal;
  brisc::CompressOptions Abundant;
  Abundant.AbundantMemory = true;
  brisc::CompressStats NS, AS;
  brisc::BriscProgram NB = brisc::compress(P, Normal, &NS);
  brisc::BriscProgram AB = brisc::compress(P, Abundant, &AS);
  // B = P removes the working-set brake: at least as many patterns are
  // adopted. File size may wobble either way (greedy estimates overlap),
  // but must stay in the same band, and execution must be identical.
  EXPECT_GE(AS.DictPatterns, NS.DictPatterns);
  EXPECT_LE(AS.TotalBytes, NS.TotalBytes + NS.TotalBytes / 8);
  vm::RunResult R1 = brisc::interpret(NB);
  vm::RunResult R2 = brisc::interpret(AB);
  ASSERT_TRUE(R1.Ok) << R1.Trap;
  ASSERT_TRUE(R2.Ok) << R2.Trap;
  EXPECT_EQ(R1.ExitCode, R2.ExitCode);
}

TEST(Brisc, AblationKnobsExecuteCorrectly) {
  vm::VMProgram P = buildProgram();
  vm::RunResult VM = vm::runProgram(P);
  for (int Mode = 0; Mode != 4; ++Mode) {
    brisc::CompressOptions Opts;
    Opts.EnableSpecialization = Mode & 1;
    Opts.EnableCombination = Mode & 2;
    brisc::BriscProgram B = brisc::compress(P, Opts);
    vm::RunResult R = brisc::interpret(B);
    ASSERT_TRUE(R.Ok) << "mode " << Mode << ": " << R.Trap;
    EXPECT_EQ(R.ExitCode, VM.ExitCode) << "mode " << Mode;
    EXPECT_EQ(R.Output, VM.Output) << "mode " << Mode;
  }
}

TEST(Brisc, DictionaryPatternsWellFormed) {
  vm::VMProgram P = buildProgram();
  brisc::BriscProgram B = brisc::compress(P);
  for (uint32_t Id = 0; Id != B.numPatterns(); ++Id)
    EXPECT_TRUE(B.pattern(Id).wellFormed()) << B.pattern(Id).str();
  // Successor tables must reference valid ids.
  ASSERT_EQ(B.Successors.numContexts(), B.numPatterns() + 1);
  for (uint32_t Ctx = 0; Ctx != B.Successors.numContexts(); ++Ctx)
    for (uint32_t Id : B.Successors.of(Ctx))
      EXPECT_LT(Id, B.numPatterns());
}

TEST(Brisc, TruncationAtEveryEighthYieldsTypedError) {
  vm::VMProgram P = buildProgram();
  brisc::BriscProgram B = brisc::compress(P);
  for (bool IncludeData : {true, false}) {
    std::vector<uint8_t> Img = B.serialize(IncludeData);
    ASSERT_GT(Img.size(), 8u);
    for (unsigned K = 0; K != 8; ++K) {
      std::vector<uint8_t> Cut(Img.begin(), Img.begin() + Img.size() * K / 8);
      Result<brisc::BriscProgram> R = brisc::BriscProgram::parse(Cut);
      EXPECT_FALSE(R.ok()) << "prefix " << K << "/8 parsed"
                           << (IncludeData ? " (with data)" : "");
      if (!R.ok())
        EXPECT_FALSE(R.error().message().empty());
    }
  }
}

TEST(Brisc, TrailingBytesRejected) {
  // Regression: parse stopped after the last field it knew and accepted
  // an image with bytes appended.
  vm::VMProgram P = buildProgram();
  brisc::BriscProgram B = brisc::compress(P);
  for (bool IncludeData : {true, false}) {
    std::vector<uint8_t> Img = B.serialize(IncludeData);
    ASSERT_TRUE(brisc::BriscProgram::parse(Img).ok());
    Img.push_back(0);
    Img.push_back(0);
    Result<brisc::BriscProgram> R = brisc::BriscProgram::parse(Img);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.error().message(), "brisc: trailing bytes");
  }
}

TEST(Brisc, InterpreterTrapsOnEscapedPatternIdPastDictionary) {
  // Regression: an escape opcode naming a pattern id past the dictionary
  // indexed the dictionary unchecked (a wild read in the prologue scan).
  vm::VMProgram P = buildProgram();
  brisc::BriscProgram B = brisc::compress(P);
  B.Funcs[B.Entry].Code = {255, 0xFF, 0x7F};
  B.Funcs[B.Entry].BBOffsets = {0};
  Result<brisc::BriscProgram> Parsed =
      brisc::BriscProgram::parse(B.serialize(/*IncludeData=*/true));
  ASSERT_TRUE(Parsed.ok()) << Parsed.error().message();
  vm::RunResult R = brisc::interpret(Parsed.value());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap, "bad pattern id");
}

TEST(Brisc, VMEncodingTruncationYieldsTypedError) {
  vm::VMProgram P = buildProgram();
  const vm::VMFunction &F = P.Functions.front();
  std::vector<uint8_t> Fixed = vm::encodeFunction(F);
  std::vector<uint8_t> Compact = vm::encodeFunctionCompact(F);
  for (unsigned K = 1; K != 8; ++K) {
    // Fixed-width decode requires whole 4-byte words; chop mid-word.
    std::vector<uint8_t> CutF(Fixed.begin(),
                              Fixed.begin() + Fixed.size() * K / 8 + 1);
    if (CutF.size() % 4 == 0)
      CutF.pop_back();
    EXPECT_FALSE(vm::tryDecodeFunction(CutF).ok()) << "fixed " << K << "/8";
    // The compact stream is self-delimiting with no instruction count,
    // so a cut on an instruction boundary legitimately decodes to a
    // shorter function; anything else must be a typed error, and a
    // clean decode must be a strict prefix of the original.
    std::vector<uint8_t> CutC(Compact.begin(),
                              Compact.begin() + Compact.size() * K / 8);
    Result<std::vector<vm::Instr>> RC = vm::tryDecodeFunctionCompact(CutC);
    if (RC.ok()) {
      ASSERT_LT(RC.value().size(), F.Code.size()) << "compact " << K << "/8";
      for (size_t I = 0; I != RC.value().size(); ++I)
        EXPECT_EQ(RC.value()[I], F.Code[I]) << "compact " << K << "/8";
    }
  }
}

TEST(Brisc, DetunedProgramsCompressAndRun) {
  codegen::Options NoBoth;
  NoBoth.NoImmediates = true;
  NoBoth.NoRegDisp = true;
  vm::VMProgram P = buildVM(Program, NoBoth);
  vm::RunResult VM = vm::runProgram(P);
  ASSERT_TRUE(VM.Ok) << VM.Trap;
  brisc::BriscProgram B = brisc::compress(P);
  vm::RunResult R = brisc::interpret(B);
  ASSERT_TRUE(R.Ok) << R.Trap;
  EXPECT_EQ(R.ExitCode, VM.ExitCode);
}

TEST(Brisc, WorkingSetSmallerThanNative) {
  vm::VMProgram P = buildProgram();
  vm::CodeLayout NL = vm::nativeLayout(P);
  vm::RunOptions NOpts;
  NOpts.Layout = &NL;
  NOpts.PageSize = 256; // Small pages make the tiny test meaningful.
  vm::RunResult NR = vm::runProgram(P, NOpts);
  ASSERT_TRUE(NR.Ok);

  brisc::BriscProgram B = brisc::compress(P);
  vm::RunOptions BOpts;
  BOpts.PageSize = 256;
  vm::RunResult BR = brisc::interpret(B, BOpts);
  ASSERT_TRUE(BR.Ok);
  EXPECT_GT(NR.PagesTouched, 0u);
  EXPECT_GT(BR.PagesTouched, 0u);
}
