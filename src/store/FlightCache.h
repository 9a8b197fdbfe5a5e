//===- store/FlightCache.h - Sharded LRU + single-flight cache --*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one cache engine behind every decode-on-fault path in the store
/// layer. Before this header existed the CodeStore's frame cache and
/// the TieredResolver's compiled-unit cache were two hand-rolled copies
/// of the same machinery (byte-budgeted LRU, pin-aware eviction,
/// single-flight dedup via shared_future); FlightCache is that
/// machinery extracted once, parameterized over the key and the cached
/// value:
///
///   - sharded: the byte budget is split across shards with the
///     remainder distributed one byte each to the first shards, so the
///     shard budgets always sum to the configured total and faults on
///     different shards never contend;
///   - single-flight: N callers faulting the same key run the compute
///     callback exactly once — one leader computes outside the lock,
///     the rest block on a shared_future and observe the same outcome
///     (including a typed error);
///   - pin-aware eviction: eviction walks from the cold end, never
///     evicts the entry inserted by the fault in progress, and skips
///     pinned entries; a budget of one byte still serves;
///   - generation-tagged pins: every insert stamps a fresh generation,
///     and pins are counted per entry generation so two *tenants*
///     pinning the same entry hold independent references, and
///     re-pinning an entry through the generation a caller already
///     holds is not double-counted;
///   - an optional admission gate, consulted only at the moment a
///     caller would become the compute leader. Callers that find the
///     value resident or an in-flight compute are served regardless —
///     this is exactly the TieredResolver's hotness-gate contract.
///
/// The cache deliberately counts only what it can observe: evictions
/// and the residency gauges. Hit/miss/wait classification is returned
/// per call in a FlightCache::Info so each caller (a tenant view over a
/// shared registry, say) attributes traffic to its *own* counters; the
/// compute callback's cost (decode time, fetch bill) is likewise the
/// caller's to measure and attribute.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_STORE_FLIGHTCACHE_H
#define CCOMP_STORE_FLIGHTCACHE_H

#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace ccomp {
namespace store {

/// Counters plus residency gauges a FlightCache maintains itself.
/// Everything per-caller (hits, misses, waits, compute cost) is
/// reported through FlightCache::Info instead.
struct FlightCounters {
  uint64_t Evictions = 0; ///< Entries evicted over budget (monotonic).
  // Gauges (current state, unaffected by resetCounters).
  uint64_t ResidentBytes = 0;
  uint64_t ResidentEntries = 0;
  uint64_t PinnedEntries = 0; ///< Entries with at least one pin.
};

/// A byte-budgeted, sharded, pin-aware LRU with single-flight compute
/// dedup. Thread-safe. \p Value must be cheap to copy (a shared_ptr in
/// both existing users).
template <typename Key, typename Value, typename Hasher = std::hash<Key>>
class FlightCache {
public:
  using Outcome = Result<Value>;
  using Compute = std::function<Outcome()>;
  using Gate = std::function<bool()>;
  using CostFn = std::function<size_t(const Value &)>;

  /// What one fault call observed, for caller-side stats attribution.
  /// Hits/Misses/Waits are counts, not flags: a pin-requesting call
  /// that waited on another caller's compute re-enters through the hit
  /// path to record its pin, observing one miss and then one hit —
  /// the same classification the pre-extraction caches produced.
  struct Info {
    unsigned Hits = 0;
    unsigned Misses = 0;
    unsigned Waits = 0;     ///< Joined another caller's in-flight compute.
    bool Led = false;       ///< This call ran the compute callback.
    bool Declined = false;  ///< The admission gate said no; nothing ran.
    uint64_t PinGen = 0;    ///< Entry generation a requested pin holds.
  };

  FlightCache(size_t BudgetBytes, unsigned NumShards, CostFn Cost)
      : Cost(std::move(Cost)), Shards(std::max(1u, NumShards)) {
    // Split the budget so the shard budgets sum to exactly the
    // configured bytes: budget/N each, remainder spread one byte per
    // shard. (A plain budget/N truncates — a 7-byte budget over 4
    // shards would silently serve only 4 bytes of capacity.)
    size_t N = Shards.size();
    size_t Base = BudgetBytes / N;
    size_t Rem = BudgetBytes % N;
    for (size_t I = 0; I != N; ++I)
      Shards[I].Budget = Base + (I < Rem ? 1 : 0);
  }

  /// Returns the cached value for \p K, computing it via \p Fn at most
  /// once across concurrent callers. \p AddPin requests a pin on the
  /// entry; \p HeldGen is the generation of a pin this caller already
  /// holds (0 for none), so re-pinning the same generation is not
  /// double-counted. \p G, when set, is consulted only if this call
  /// would become the compute leader; a false return declines the fault
  /// (Info.Declined) without computing.
  Outcome fault(const Key &K, bool AddPin, uint64_t HeldGen,
                const Compute &Fn, Info &I, const Gate &G = Gate()) {
    Shard &Sh = shardOf(K);
    for (;;) {
      std::shared_future<Outcome> Wait;
      std::promise<Outcome> Pr;
      {
        std::lock_guard<std::mutex> L(Sh.Mu);
        auto It = Sh.Map.find(K);
        if (It != Sh.Map.end()) {
          Sh.Lru.splice(Sh.Lru.begin(), Sh.Lru, It->second.LruIt);
          ++I.Hits;
          if (AddPin && It->second.Gen != HeldGen) {
            if (It->second.PinCount++ == 0)
              ++Sh.C.PinnedEntries;
          }
          I.PinGen = It->second.Gen;
          return Outcome(It->second.Val);
        }
        ++I.Misses;
        auto FIt = Sh.InFlight.find(K);
        if (FIt != Sh.InFlight.end()) {
          ++I.Waits;
          Wait = FIt->second;
        } else {
          if (G && !G()) {
            I.Declined = true;
            return Outcome(DecodeError("cache: admission gate declined"));
          }
          Sh.InFlight.emplace(K, Pr.get_future().share());
        }
      }
      if (Wait.valid()) {
        Outcome Out = Wait.get();
        if (!Out.ok() || !AddPin)
          return Out;
        continue; // Pin requested: record it through the hit path.
      }

      // Single-flight leader: compute outside the lock.
      I.Led = true;
      Outcome Out = [&]() -> Outcome {
        try {
          return Fn();
        } catch (const std::bad_alloc &) {
          return Outcome(DecodeError("cache: allocation failed in compute"));
        }
      }();
      {
        std::lock_guard<std::mutex> L(Sh.Mu);
        Sh.InFlight.erase(K);
        if (Out.ok()) {
          size_t C = Cost(Out.value());
          auto [MIt, Inserted] = Sh.Map.emplace(K, Entry());
          (void)Inserted; // InFlight excluded any concurrent compute of K.
          MIt->second.Val = Out.value();
          MIt->second.Cost = C;
          MIt->second.Gen = ++Sh.NextGen;
          Sh.Lru.push_front(K);
          MIt->second.LruIt = Sh.Lru.begin();
          Sh.C.ResidentBytes += C;
          ++Sh.C.ResidentEntries;
          if (AddPin) {
            MIt->second.PinCount = 1;
            ++Sh.C.PinnedEntries;
          }
          I.PinGen = MIt->second.Gen;
          evictOver(Sh, K);
        }
      }
      Pr.set_value(Out);
      return Out;
    }
  }

  /// Releases one pin taken at generation \p HeldGen. A generation the
  /// entry does not carry (it was unpinned, evicted and re-created
  /// since) is a no-op: the pin it names no longer exists.
  void unpin(const Key &K, uint64_t HeldGen) {
    Shard &Sh = shardOf(K);
    std::lock_guard<std::mutex> L(Sh.Mu);
    auto It = Sh.Map.find(K);
    if (It == Sh.Map.end() || It->second.Gen != HeldGen ||
        It->second.PinCount == 0)
      return;
    if (--It->second.PinCount == 0)
      --Sh.C.PinnedEntries;
  }

  /// True if \p K is resident right now (no LRU effect).
  bool resident(const Key &K) const {
    const Shard &Sh = shardOf(K);
    std::lock_guard<std::mutex> L(Sh.Mu);
    return Sh.Map.count(K) != 0;
  }

  /// Consistent totals across all shards (locks every shard, in index
  /// order).
  FlightCounters counters() const {
    std::vector<std::unique_lock<std::mutex>> Locks;
    Locks.reserve(Shards.size());
    for (const Shard &Sh : Shards)
      Locks.emplace_back(Sh.Mu);
    FlightCounters T;
    for (const Shard &Sh : Shards) {
      T.Evictions += Sh.C.Evictions;
      T.ResidentBytes += Sh.C.ResidentBytes;
      T.ResidentEntries += Sh.C.ResidentEntries;
      T.PinnedEntries += Sh.C.PinnedEntries;
    }
    return T;
  }

  /// Zeroes the monotonic eviction counter; gauges are preserved.
  void resetCounters() {
    for (Shard &Sh : Shards) {
      std::lock_guard<std::mutex> L(Sh.Mu);
      Sh.C.Evictions = 0;
    }
  }

  /// Effective capacity: the sum of all shard budgets. Always equals
  /// the configured budget.
  size_t budgetBytes() const {
    size_t Total = 0;
    for (const Shard &Sh : Shards)
      Total += Sh.Budget;
    return Total;
  }

  unsigned shardCount() const { return static_cast<unsigned>(Shards.size()); }

private:
  struct Entry {
    Value Val{};
    size_t Cost = 0;
    uint32_t PinCount = 0;
    uint64_t Gen = 0; ///< Stamped at insert; pins are per generation.
    typename std::list<Key>::iterator LruIt;
  };

  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<Key, Entry, Hasher> Map;
    std::list<Key> Lru; ///< Front = most recently used.
    std::unordered_map<Key, std::shared_future<Outcome>, Hasher> InFlight;
    FlightCounters C; ///< Guarded by Mu.
    size_t Budget = 0;
    uint64_t NextGen = 0;
  };

  Shard &shardOf(const Key &K) {
    return Shards[Hasher()(K) % Shards.size()];
  }
  const Shard &shardOf(const Key &K) const {
    return Shards[Hasher()(K) % Shards.size()];
  }

  /// Evicts from the cold end until under budget. The entry faulted in
  /// most recently (\p Keep) is never a victim, so a budget smaller
  /// than one entry still serves; pinned entries are skipped.
  void evictOver(Shard &Sh, const Key &Keep) {
    while (Sh.C.ResidentBytes > Sh.Budget && Sh.Map.size() > 1) {
      auto VictimIt = Sh.Lru.end();
      for (auto R = Sh.Lru.rbegin(); R != Sh.Lru.rend(); ++R) {
        if (*R == Keep)
          continue;
        if (Sh.Map.find(*R)->second.PinCount > 0)
          continue;
        VictimIt = std::prev(R.base());
        break;
      }
      if (VictimIt == Sh.Lru.end())
        return; // Everything else is pinned; stay over budget.
      auto MIt = Sh.Map.find(*VictimIt);
      Sh.C.ResidentBytes -= MIt->second.Cost;
      --Sh.C.ResidentEntries;
      Sh.Map.erase(MIt);
      Sh.Lru.erase(VictimIt);
      ++Sh.C.Evictions;
    }
  }

  CostFn Cost;
  std::vector<Shard> Shards;
};

} // namespace store
} // namespace ccomp

#endif // CCOMP_STORE_FLIGHTCACHE_H
