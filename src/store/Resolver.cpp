//===- store/Resolver.cpp - Store-backed VM function resolver -------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "store/Resolver.h"

#include "support/ThreadPool.h"

using namespace ccomp;
using namespace ccomp::store;

std::shared_ptr<const vm::VMFunction>
StoreBackedResolver::resolve(uint32_t Fn, std::string &Err) {
  Result<std::shared_ptr<const vm::VMFunction>> R = Store.fault(Fn);
  if (!R.ok()) {
    Err = R.error().message();
    return nullptr;
  }
  return R.take();
}

bool StoreBackedResolver::resolveSpan(uint32_t Fn, uint32_t Idx,
                                      vm::CodeSpan &Out, std::string &Err) {
  Result<vm::CodeSpan> R = Store.faultSpan(Fn, Idx);
  if (!R.ok()) {
    Err = R.error().message();
    return false;
  }
  Out = R.take();
  if (Prefetch)
    Store.prefetchPredicted(Fn, Idx, *Prefetch);
  return true;
}

vm::RunResult store::runFromStore(CodeStore &S, vm::RunOptions Opts,
                                  ThreadPool *Prefetch) {
  StoreBackedResolver Rv(S, Prefetch);
  Opts.Resolver = &Rv;
  vm::Machine M(S.skeleton(), Opts);
  vm::RunResult R = M.run();
  if (Prefetch)
    Prefetch->wait(); // Outstanding warms reference the store.
  return R;
}
