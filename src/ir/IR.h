//===- ir/IR.h - Tree IR: trees, functions, modules -------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree intermediate representation the wire format compresses. A
/// Module holds global data and Functions; each Function is a forest of
/// statement Trees executed in order (lcc's model). ARG trees accumulate
/// call arguments consumed by the next CALL in forest order; LABEL trees
/// define branch targets.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_IR_IR_H
#define CCOMP_IR_IR_H

#include "ir/Opcode.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace ccomp {
namespace ir {

/// One tree node. Nodes are owned by their Function's arena; Tree pointers
/// stay valid for the Function's lifetime. The one-byte fields lead, so a
/// node is 32 bytes on 64-bit hosts.
struct Tree {
  Op O = Op::CNST;
  TypeSuffix Suffix = TypeSuffix::I;
  uint8_t NKids = 0;
  int64_t Literal = 0; ///< Value / frame offset / symbol index / label id.
  Tree *Kids[2] = {nullptr, nullptr};

  bool hasLit() const { return hasLiteral(O); }
};

/// A symbol visible at module scope (function or data).
struct Symbol {
  std::string Name;
  bool IsFunction = false;
};

/// A global data object: size/alignment plus optional initializer bytes
/// (zero-initialized when Init is empty and not a string constant).
struct Global {
  uint32_t SymbolIndex = 0;
  uint32_t Size = 0;
  uint32_t Align = 4;
  std::vector<uint8_t> Init; ///< Empty means zero-initialized.
};

/// A function: parameter/frame layout plus the statement forest.
class Function {
public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}

  /// Allocates a node in this function's arena.
  Tree *newTree(Op O, TypeSuffix S, int64_t Literal = 0, Tree *K0 = nullptr,
                Tree *K1 = nullptr) {
    Arena.emplace_back();
    Tree &T = Arena.back();
    T.O = O;
    T.Suffix = S;
    T.Literal = Literal;
    T.Kids[0] = K0;
    T.Kids[1] = K1;
    T.NKids = K1 ? 2 : (K0 ? 1 : 0);
    return &T;
  }

  const std::string &name() const { return Name; }

  std::string Name;
  uint32_t FrameSize = 0;  ///< Bytes of locals (sp-relative).
  uint32_t ParamBytes = 0; ///< Bytes of incoming parameters.
  uint32_t NumLabels = 0;  ///< Label ids are in [0, NumLabels).
  /// Frame offsets where the code generator must store the register-passed
  /// parameters (parameter i in ParamSlots[i] for i < ParamSlots.size());
  /// remaining parameters arrive on the stack and are addressed by ADDRF.
  std::vector<uint32_t> ParamSlots;
  std::vector<Tree *> Forest;

private:
  std::deque<Tree> Arena;
};

/// A whole program in tree IR.
class Module {
public:
  /// Returns the index of symbol \p Name, interning it if new.
  uint32_t internSymbol(const std::string &Name, bool IsFunction) {
    for (uint32_t I = 0; I != Symbols.size(); ++I)
      if (Symbols[I].Name == Name) {
        Symbols[I].IsFunction |= IsFunction;
        return I;
      }
    Symbols.push_back({Name, IsFunction});
    return static_cast<uint32_t>(Symbols.size() - 1);
  }

  /// Returns the symbol index of \p Name or ~0u if absent.
  uint32_t findSymbol(const std::string &Name) const {
    for (uint32_t I = 0; I != Symbols.size(); ++I)
      if (Symbols[I].Name == Name)
        return I;
    return ~0u;
  }

  Function *addFunction(const std::string &Name) {
    internSymbol(Name, /*IsFunction=*/true);
    Functions.push_back(std::make_unique<Function>(Name));
    return Functions.back().get();
  }

  Function *findFunction(const std::string &Name) {
    for (auto &F : Functions)
      if (F->Name == Name)
        return F.get();
    return nullptr;
  }

  std::vector<Symbol> Symbols;
  std::vector<Global> Globals;
  std::vector<std::unique_ptr<Function>> Functions;
};

/// Counts tree nodes in a function's forest.
unsigned countNodes(const Function &F);

/// Counts tree nodes in a whole module.
unsigned countNodes(const Module &M);

/// Structural validation: kid counts, literal presence, label ranges,
/// symbol indices. Returns an empty string on success, else a diagnostic.
std::string verify(const Module &M);

} // namespace ir
} // namespace ccomp

#endif // CCOMP_IR_IR_H
