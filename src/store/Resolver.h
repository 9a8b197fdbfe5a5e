//===- store/Resolver.h - Store-backed VM function resolver -----*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The glue between the interpreter's resolver hook (vm::FunctionResolver)
/// and the CodeStore: every cross-function control transfer the Machine
/// makes becomes a store fault, so code executes straight out of the
/// compressed store with only the cache-resident working set decoded.
///
/// A resolver binds to one CodeStore — one *tenant view*. When several
/// stores share a FrameRegistry, each Machine still gets its own
/// resolver over its own store; the sharing happens a layer down, in
/// the registry's cache. The spans a resolver hands out stay valid even
/// if another tenant's fault evicts the shared entry mid-execution:
/// vm::CodeSpan::Keep holds the decoded body alive independently of
/// cache residency.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_STORE_RESOLVER_H
#define CCOMP_STORE_RESOLVER_H

#include "store/CodeStore.h"
#include "vm/Machine.h"

namespace ccomp {
namespace store {

/// Routes vm::Machine call/return faults through a CodeStore. A decode
/// failure surfaces as a resolver failure, which the interpreter turns
/// into a trap for that run — the process (and the store's other
/// functions) carry on. Subclassable: store::TieredResolver layers the
/// native execution tier on this fault path.
///
/// With a \p Prefetch pool, every successful span resolve also asks the
/// store to warm the predicted successors of the faulted frame
/// (recorded successor graph when a profile was applied, static
/// call/fall-through graph otherwise) through that pool. Warms are
/// asynchronous — call Pool.wait() (or destroy the pool) before tearing
/// down the store.
class StoreBackedResolver : public vm::FunctionResolver {
public:
  explicit StoreBackedResolver(CodeStore &S, ThreadPool *Prefetch = nullptr)
      : Store(S), Prefetch(Prefetch) {}

  uint32_t functionCount() const override { return Store.functionCount(); }

  std::shared_ptr<const vm::VMFunction> resolve(uint32_t Fn,
                                                std::string &Err) override;

  /// Page-granular resolve: only the page holding \p Idx is decoded
  /// (hot pages of the same function stay resident while cold ones
  /// fault on first touch). Then warms the predicted successors when a
  /// prefetch pool was given.
  bool resolveSpan(uint32_t Fn, uint32_t Idx, vm::CodeSpan &Out,
                   std::string &Err) override;

protected:
  CodeStore &Store;

private:
  ThreadPool *Prefetch;
};

/// Convenience: interpret the store's program end-to-end, decoding
/// functions on fault. Opts.Resolver is overwritten. With a \p Prefetch
/// pool every fault also warms the store's predicted-next frames, and
/// the outstanding warms are drained before returning.
vm::RunResult runFromStore(CodeStore &S,
                           vm::RunOptions Opts = vm::RunOptions(),
                           ThreadPool *Prefetch = nullptr);

} // namespace store
} // namespace ccomp

#endif // CCOMP_STORE_RESOLVER_H
