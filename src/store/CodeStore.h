//===- store/CodeStore.h - Demand-paged compressed-code store ---*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-shaped runtime layer over the codec registry: a CodeStore
/// holds a module's functions as *compressed frames* and materializes
/// decoded vm::Functions lazily at first call. This is the paper's
/// section-1 economic argument made executable — when memory is scarce,
/// keep the compact form resident and pay a decode on fault instead of
/// keeping every function decoded.
///
/// Architecture. A CodeStore is a per-tenant *view* over a
/// store::FrameRegistry (store/FrameRegistry.h), which owns the cache
/// proper: a sharded, byte-budgeted, pin-aware LRU of decoded bodies
/// with single-flight dedup, keyed by (container content hash, frame
/// id). By default each store constructs a private registry sized from
/// its StoreOptions — single-tenant behavior, indistinguishable from a
/// store owning its cache outright. Injecting a registry via
/// StoreOptions::SharedRegistry instead makes N stores of the same
/// module (same content hash) share one decode, one resident copy, one
/// global byte budget, and one heat table, while stores of different
/// modules stay isolated by hash. The tenant keeps what is per-client:
///   - its FrameSource and RetryPolicy — the faulting tenant fetches
///     compressed bytes through its *own* transport, so two tenants of
///     one module may pull frames from different media;
///   - its pins, generation-tagged in the registry so tenants cannot
///     release each other's;
///   - its traffic counters: Hits/Misses/SingleFlightWaits and the
///     fetch bill are attributed per tenant, while decode execution
///     counters and residency gauges are registry-global (a shared
///     decode ran once, so it is counted once). stats() merges both
///     sides into one StoreStats; registryStats() exposes the global
///     side alone. resetStats() clears this tenant's counters and only
///     touches the registry's when it is private.
///
/// Fault granularity. Every frame is a *page*: a run of whole basic
/// blocks of one function, compressed as bare code, with the function's
/// name, frame size and label table kept in the manifest's page table.
/// build() splits each function at branch-label boundaries and greedily
/// packs adjacent blocks into pages of roughly
/// StoreOptions::PageTargetBytes fixed-width code bytes; a target of 0
/// never cuts, so each function is exactly one page. The cache faults,
/// evicts, pins, and single-flights pages: faultSpan() decodes only the
/// page holding the requested instruction (the vm::FunctionResolver hook
/// the interpreter drives), while fault() assembles a fresh full body
/// from its pages.
///
/// Frames are produced by any registered pipeline::Codec chain whose
/// first codec accepts per-function payloads (Raw, FixedCode or
/// FuncImage). Module-granularity codecs (wire) cannot represent a
/// single function and are rejected at build/load time with a clear
/// error. The on-disk form is a standard CCPK container whose frame 0 is
/// the store manifest and whose frames 1..N are the compressed pages in
/// manifest order. There is one manifest layout, version 3: magic,
/// version, a flags byte, the container's content-hash claim, the body
/// kind, then the globals/entry skeleton and the per-function headers.
/// Flag bit 0 marks the page table (each header carries its code length
/// and page extents) and is required: a manifest without it fails typed.
/// Flag bit 1 marks a per-frame chain table. The loader refuses every
/// other version byte and every unknown flag bit with a typed error;
/// there is no legacy layout to fall back to.
///
/// Per-frame codec selection. Every store holds one chain table whose
/// entry 0 is the container's chain, plus the index of the chain that
/// decodes each frame; decodeFrame routes every frame through its own
/// entry. build() with StoreOptions::CandidateChains trial-encodes
/// every frame through the primary chain plus each candidate and keeps
/// the smallest verified frame (pipeline::selectChainsPerItem) — hot
/// loops of fixed-width code may win with a context-modeled instruction
/// codec while string-heavy data pages win with a block-sorting byte
/// codec. A non-uniform outcome writes the table (flag bit 1: the chain
/// specs after the body kind, one index per frame after the function
/// headers). A uniform outcome keeps a one-entry table that is not
/// written, so the container is bit-identical to a build without
/// candidates.
///
/// Content addressing and trust. The registry key's hash half is
/// pipeline::hashContainerFrames over (chain spec, frame bytes),
/// computed by build() and recomputed at load time whenever the source
/// can produce its content (in-memory containers; simulated-remote
/// origins). The manifest's *claimed* hash is checked against the
/// recomputed one before a store may join a shared registry — a
/// doctored or corrupt container fails typed instead of poisoning
/// another tenant's frames. Sources that cannot be content-hashed
/// (on-demand files) trust the claim. Private stores accept a
/// mismatched claim (a corrupt frame still surfaces as a typed
/// per-fault error, never anyone else's problem).
///
/// Frames live behind a FrameSource (store/FrameSource.h), so the same
/// fault path serves frames held in memory (LocalFrameSource), read on
/// demand from a container file (FileFrameSource), or fetched over a
/// simulated flaky link (SimulatedRemoteFrameSource). Fetches run under
/// the store's RetryPolicy: transient transport failures are retried
/// with backed-off virtual delays, permanent ones fail that fault with a
/// typed error, and either way concurrent single-flight waiters all
/// observe the same outcome.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_STORE_CODESTORE_H
#define CCOMP_STORE_CODESTORE_H

#include "pipeline/Codec.h"
#include "store/FrameRegistry.h"
#include "store/FrameSource.h"
#include "support/Error.h"
#include "support/Span.h"
#include "vm/Machine.h"
#include "vm/Program.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace ccomp {

class ThreadPool;

namespace pipeline {
struct ExecutionTrace;
} // namespace pipeline

namespace store {

/// Store construction knobs.
struct StoreOptions {
  /// Total decoded-bytes budget for the store's *private* registry,
  /// split across shards (remainder bytes go one each to the first
  /// shards, so the shard budgets always sum to this value). The budget
  /// is a target, not a hard cap: the entry faulted in most recently is
  /// never evicted, so any budget >= 1 frame still executes, and pinned
  /// entries are never evicted. Ignored — along with Shards — when
  /// SharedRegistry is set: a shared registry brings its own
  /// RegistryOptions.
  size_t CacheBudgetBytes = 1u << 20;
  /// Private registry only. Clamped to [1, frame count], and to no more
  /// shards than leave each shard's budget room for the largest frame.
  unsigned Shards = 8;
  unsigned BuildJobs = 1; ///< Compression fan-out in build().
  /// build() only: split functions at basic-block boundaries into pages
  /// of at most this many fixed-width code bytes (an oversized single
  /// block still forms one page) and compress each page as its own
  /// frame. Zero means one page per function. Loading reads the pages
  /// from the container's manifest.
  size_t PageTargetBytes = 0;
  /// build() only: additional candidate chain specs for per-frame codec
  /// selection. When non-empty, every page is trial-encoded through the
  /// primary chain *and* each candidate, and the smallest verified frame
  /// wins (pipeline::selectChainsPerItem). Candidates must exist in the
  /// registry and serve the same manifest body kind as the primary chain
  /// (FuncImage chains pair only with FuncImage candidates; Raw and
  /// FixedCode mix freely — their payloads are the same bytes). The
  /// selection is a pure compressed-size comparison, so it is
  /// deterministic. A non-uniform selection is written as the manifest's
  /// per-frame chain table; when every frame picks the primary chain the
  /// container is bit-identical to a build without candidates.
  std::vector<std::string> CandidateChains;
  /// How frame fetches behave on a flaky source (ignored by sources that
  /// cannot fail transiently).
  RetryPolicy Retry;
  /// build() only: an execution trace recorded by store::recordTrace.
  /// With PageTargetBytes set, splitFunctionPages packs co-hot blocks
  /// onto shared pages instead of splitting in source order, and the
  /// trace seeds the predictive-prefetch successor graph
  /// (applyAccessProfile). The chosen layout rides in the ordinary
  /// manifest page table, so load paths neither see nor trust the
  /// profile. Read only during build(); need not outlive it.
  const pipeline::ExecutionTrace *Profile = nullptr;
  /// The multi-tenant seam: when set, this store becomes a tenant view
  /// over the given process-wide registry instead of constructing a
  /// private one. Joining requires a trustworthy content hash (see the
  /// file comment) and a module shape consistent with any tenant that
  /// registered the same hash first.
  std::shared_ptr<FrameRegistry> SharedRegistry;
};

/// Monotonic counters plus residency gauges, as seen by one store.
/// Traffic counters (Hits/Misses/SingleFlightWaits/DecodeErrors and the
/// Fetch* family) are this tenant's own; decode-execution counters
/// (Decodes/PrefetchDecodes/DecodeNanos/DecodedBytes/Evictions) and the
/// gauges come from the registry, so under a shared registry they
/// aggregate every tenant (the decode ran once — it is counted once).
/// Hits/Misses/Decodes count cache entries, which are pages.
struct StoreStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;            ///< Demand faults (cold or re-fetch after evict).
  uint64_t Decodes = 0;           ///< All decodes executed (demand + prefetch).
  uint64_t PrefetchDecodes = 0;   ///< Decodes issued by prefetch() warms; these
                                  ///< never count as Hits/Misses, so miss-rate
                                  ///< lines reflect demand traffic only.
  uint64_t SingleFlightWaits = 0; ///< Demand faults served by another thread's decode.
  uint64_t DecodeErrors = 0;      ///< Failed faults this tenant led.
  uint64_t Evictions = 0;
  uint64_t DecodeNanos = 0;  ///< Wall time inside frame decodes.
  uint64_t DecodedBytes = 0; ///< Decoded cost bytes produced by decodes.
  // Frame-source fetch counters (all zero for in-memory sources unless a
  // flaky link is injected in front). Always this tenant's own traffic:
  // fetches run on the tenant's transport even when the decode cache is
  // shared.
  uint64_t FetchAttempts = 0;     ///< Fetch attempts, including retries.
  uint64_t FetchRetries = 0;      ///< Transient failures masked by retry.
  uint64_t FetchFailures = 0;     ///< Fetches that failed for good.
  uint64_t FetchedBytes = 0;      ///< Compressed bytes fetched successfully.
  uint64_t FetchVirtualNanos = 0; ///< Virtual link clock: transfer + backoff.
  // Gauges (current state, unaffected by resetStats; registry-global).
  uint64_t ResidentBytes = 0;
  uint64_t ResidentFunctions = 0; ///< Resident cache entries (pages).
  uint64_t PinnedFunctions = 0;   ///< Pinned cache entries (pages).

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total) : 0.0;
  }
};

/// A module's functions as compressed frames with a decode-on-fault
/// cache in front. Thread-safe: fault/faultSpan/pin/prefetch/stats may
/// be called concurrently, on one store or on several tenant views of
/// one shared registry.
class CodeStore {
public:
  /// Splits every function of \p P into pages (Opts.PageTargetBytes) and
  /// compresses each through \p ChainSpec. Returns null
  /// and sets \p Error if the chain does not exist, cannot serve
  /// per-function frames (module-granularity first codec), or the
  /// shared registry refuses the module (hash-collision shape check).
  static std::unique_ptr<CodeStore> build(const vm::VMProgram &P,
                                          const std::string &ChainSpec,
                                          StoreOptions Opts,
                                          std::string &Error);

  ~CodeStore();

  /// Serializes manifest + frames into a CCPK container, fetching every
  /// frame from the source. Fails typed if the source cannot produce
  /// some frame (e.g. a dead backing file). Writes the one manifest
  /// layout, with the per-frame chain table when perPageChains().
  Result<std::vector<uint8_t>> trySave();
  /// Aborting wrapper for stores whose source cannot fail (in-memory).
  std::vector<uint8_t> save();

  /// Parses a container of unknown provenance. Corrupt manifests yield a
  /// typed DecodeError here; corrupt *frames* surface later, as
  /// recoverable per-fault errors — except when joining a shared
  /// registry, where a frame/claim hash mismatch is refused at load
  /// time (see the file comment).
  static Result<std::unique_ptr<CodeStore>> tryLoad(ByteSpan Bytes,
                                                    StoreOptions Opts);

  /// Opens a store container file, reading frames on demand through a
  /// FileFrameSource: the manifest is fetched and parsed now, the frames
  /// stay on disk until faulted.
  static Result<std::unique_ptr<CodeStore>> tryOpenFile(const std::string &Path,
                                                        StoreOptions Opts);

  /// The general entry: serve frames from any FrameSource whose backing
  /// medium carries a store manifest (containers made by save()). The
  /// manifest is fetched through Opts.Retry, so a flaky remote source
  /// can fail this typed — but a transient-only fault rate below 1
  /// usually just costs retries.
  static Result<std::unique_ptr<CodeStore>>
  tryFromSource(std::unique_ptr<FrameSource> Src, StoreOptions Opts);

  /// The program skeleton (globals, entry, no function bodies) to build
  /// a vm::Machine around; pair with a StoreBackedResolver.
  const vm::VMProgram &skeleton() const { return Skel; }

  uint32_t functionCount() const {
    return static_cast<uint32_t>(Funcs.size());
  }
  const std::string &functionName(uint32_t Id) const {
    return Funcs[Id].Name;
  }
  const std::string &chainSpec() const { return Spec; }

  /// True when the chain table holds more than the container's chain
  /// (built with StoreOptions::CandidateChains and a non-uniform
  /// outcome, or loaded from such a container); chainSpec() then names
  /// the primary chain only.
  bool perPageChains() const { return ChainSpecs.size() > 1; }
  /// The chain spec that decodes frame \p Id (== chainSpec() unless
  /// perPageChains()).
  const std::string &frameChainSpec(uint32_t Id) const {
    return ChainSpecs[FrameChain[Id]];
  }

  /// Total frames (pages) behind the source.
  uint32_t frameCount() const { return TotalPages; }
  /// Number of pages function \p Id was split into.
  uint32_t pageCountOf(uint32_t Id) const {
    return static_cast<uint32_t>(Funcs[Id].Pages.size());
  }

  /// Where this store's frames come from.
  const FrameSource &source() const { return *Source; }

  /// Total compressed frame bytes held by the store's source.
  size_t frameBytes() const { return Source->frameBytes(); }

  /// The container content hash this store's frames are registered
  /// under — the module half of every registry key.
  uint64_t containerHash() const { return Hash; }

  /// The registry serving this store's decoded frames (private unless
  /// StoreOptions::SharedRegistry was set).
  FrameRegistry &registry() { return *Reg; }
  const FrameRegistry &registry() const { return *Reg; }
  /// True when the registry is shared with other stores.
  bool sharesRegistry() const { return !PrivateReg; }
  /// The registry-global side of the stats (shortcut for
  /// registry().stats()).
  RegistryStats registryStats() const { return Reg->stats(); }

  /// Effective cache capacity: the registry's budget (equals the
  /// configured CacheBudgetBytes for a private registry).
  size_t cacheBudgetBytes() const { return Reg->cacheBudgetBytes(); }

  /// The fault path: returns the decoded function, decoding each frame
  /// at most once no matter how many threads — or tenants — fault it
  /// concurrently. The body is assembled afresh from the function's
  /// pages (faulting every page in), so two calls return equal bodies,
  /// not the same object. A corrupt frame fails this call (and every
  /// retry) with a typed error; other functions stay servable.
  Result<std::shared_ptr<const vm::VMFunction>> fault(uint32_t Id);

  /// Page-granular fault: decodes only the page of function \p Fn
  /// holding instruction \p Idx and returns it as an executable span; the
  /// span's Keep is the cached page body. An \p Idx past the end of the
  /// function clamps to the last page, so the interpreter can trap on
  /// the out-of-range Pc itself.
  Result<vm::CodeSpan> faultSpan(uint32_t Fn, uint32_t Idx);

  /// Faults \p Id in and marks every page of it pinned; pinned entries
  /// are never evicted. Pins are per tenant: two stores pinning
  /// the same shared frame hold independent references, and unpin
  /// releases only this store's.
  Result<std::shared_ptr<const vm::VMFunction>> pin(uint32_t Id);
  void unpin(uint32_t Id);

  /// Warms \p Ids (function ids; all their pages) through
  /// \p Pool; call Pool.wait() to block until done. Prefetch warms are
  /// accounted as PrefetchDecodes, never as demand Hits/Misses. Decode
  /// failures are absorbed into the DecodeErrors counter. The wave is
  /// clamped to what cache admission would accept (clampToAdmission):
  /// frames past the decode budget are neither hinted to the source nor
  /// warmed, so a tiny budget cannot be tricked into fetching bytes it
  /// must immediately evict.
  void prefetch(const std::vector<uint32_t> &Ids, ThreadPool &Pool);

  /// The frame serving instruction \p Idx of function \p Fn: the page
  /// holding it (out-of-range \p Idx clamps like faultSpan).
  uint32_t frameOf(uint32_t Fn, uint32_t Idx) const;

  /// Digests \p T into the predictive successor graph: consecutive
  /// trace events become frame->frame transfer counts, and each frame
  /// keeps its most-frequent successors (ties broken by lower frame id,
  /// so the graph is deterministic). Replaces the static graph build()
  /// derived from the call/fall-through structure. Not synchronized
  /// against in-flight prefetchPredicted calls — install profiles
  /// before serving, like the rest of construction.
  void applyAccessProfile(const pipeline::ExecutionTrace &T);
  /// True when applyAccessProfile installed a recorded graph (build()
  /// applies StoreOptions::Profile automatically).
  bool hasAccessProfile() const;

  /// How many non-resident predicted frames one fault warms.
  static constexpr unsigned DefaultPredictions = 4;

  /// Most-likely next frames after \p Frame, best first: the recorded
  /// successor graph when a profile was applied, else the static graph
  /// (the function's next page plus the first pages of called
  /// functions; loaded stores lack code to scan, so only next-page
  /// edges). Empty when nothing is known.
  std::vector<uint32_t> predictedSuccessors(
      uint32_t Frame, unsigned Max = DefaultPredictions) const;

  /// Targeted prefetch: warms the predicted successors of the frame
  /// serving (\p Fn, \p Idx) — one admission-clamped prefetchHint batch
  /// plus pool warms — instead of warming everything. Frames whose warm
  /// is still pending count as taken, so the wave does not depend on
  /// pool scheduling. No-op when nothing is predicted or everything
  /// predicted is resident or pending.
  void prefetchPredicted(uint32_t Fn, uint32_t Idx, ThreadPool &Pool);

  /// Decoded-bytes cost of one frame before decoding it. Exact: the
  /// manifest carries each page's instruction count, and page bodies
  /// have no name or label table.
  size_t estimatedDecodedCost(uint32_t FrameId) const;

  /// Longest prefix of \p Frames whose summed estimated decoded cost
  /// fits the cache budget — what admission would accept. Never drops
  /// the first frame: the most-recently-faulted entry is never evicted,
  /// so one frame is always admissible.
  std::vector<uint32_t> clampToAdmission(std::vector<uint32_t> Frames) const;

  /// True if every page of \p Id is decoded and resident right now (no
  /// LRU effect).
  bool isResident(uint32_t Id) const;

  /// This tenant's traffic counters merged with the registry's decode
  /// counters and gauges into one StoreStats (see the struct comment
  /// for which is which).
  StoreStats stats() const;
  /// Zeroes this tenant's monotonic counters. A *private* registry's
  /// counters are cleared too (single-tenant behavior: stats() reads
  /// zero decodes afterwards); a shared registry is left untouched —
  /// one tenant resetting must not erase another tenant's view or the
  /// process-wide decode bill. Residency gauges are preserved either
  /// way, and heat counters (frameHeat/functionHeat) are *never*
  /// cleared: they are the tiered runtime's access-pattern signal, and
  /// resetting the stats between benchmark phases must not cool
  /// compiled code.
  void resetStats();

  /// Demand touches (hits + misses, prefetch excluded) of frame \p Id,
  /// pooled across every tenant of this module. Monotonic; approximate
  /// under concurrency (relaxed atomics).
  uint64_t frameHeat(uint32_t Id) const { return Heat->frameHeat(Id); }
  /// Demand touches summed over every frame of function \p Fn — the
  /// hotness signal a TieredResolver's HotThreshold tests.
  uint64_t functionHeat(uint32_t Fn) const { return Heat->functionHeat(Fn); }

private:
  CodeStore() = default;
  /// Joins or constructs the registry and registers the module; fails
  /// typed on a shared-registry shape conflict.
  Result<bool> initRuntime(StoreOptions Opts);
  void indexPages();

  using FaultOutcome = Result<std::shared_ptr<const vm::VMFunction>>;
  /// Faults one cache entry (a page frame). \p Prefetch suppresses the
  /// demand Hit/Miss/wait counters and counts successful decodes as
  /// PrefetchDecodes.
  FaultOutcome faultImpl(uint32_t Id, bool Pin, bool Prefetch);
  /// The registry round trip for one frame: fetch+decode callback,
  /// traffic attribution, pin-generation bookkeeping. \p Held is the
  /// pin generation this tenant already holds (0 for none); on success
  /// with \p Pin, \p PinGenOut receives the generation the pin now
  /// holds. Caller holds PinMu when \p Pin is set.
  FaultOutcome registryFault(uint32_t Id, bool Pin, uint64_t Held,
                             bool Prefetch, uint64_t *PinGenOut);
  /// Faults every page of \p Fn and concatenates them into a full body.
  FaultOutcome assembleFunction(uint32_t Fn, bool Pin);
  /// Fetches frame \p Id from the source (under Opts.Retry, charging \p
  /// M) and decodes it through the chain.
  FaultOutcome decodeFrame(uint32_t Id, FetchMetrics &M);
  void unpinEntry(uint32_t Id);
  bool entryResident(uint32_t Id) const;
  FrameKey keyOf(uint32_t Id) const { return FrameKey{Hash, Id}; }
  /// The no-trace fallback graph: next-page edges, plus call edges from
  /// \p P's code when building (null when loading a container).
  void initStaticSuccessors(const vm::VMProgram *P);
  /// Hints \p Frames to the source and warms each through \p Pool; the
  /// caller has already filtered residency and clamped to admission.
  void warmFrames(const std::vector<uint32_t> &Frames, ThreadPool &Pool);
  /// True while a warm of frame \p Id is queued or running on a pool.
  bool warmPending(uint32_t Id) const;

  /// One page's manifest entry: which slice of the function it holds,
  /// and (FuncImage chains only) the rank -> function-label-index list
  /// its payload's branch targets were rewritten through.
  struct PageRec {
    uint32_t FirstInstr = 0;
    uint32_t InstrCount = 0;
    std::vector<uint32_t> Labels;
  };

  /// One function's manifest header and page table: everything a
  /// VMFunction holds except its code, which lives in the page frames
  /// behind the FrameSource.
  struct FuncRecord {
    std::string Name;
    uint32_t FrameSize = 0;
    std::vector<uint32_t> LabelPos;
    uint32_t CodeLen = 0;   ///< Total instruction count.
    uint32_t FirstPage = 0; ///< Frame id of this function's first page.
    std::vector<PageRec> Pages;
  };

  /// Page index of instruction \p Idx within \p Rec (clamping).
  static uint32_t pageIndexOf(const FuncRecord &Rec, uint32_t Idx);

  /// This tenant's traffic counters. Relaxed atomics: each counter is
  /// independently monotonic, and stats() takes an approximate-but-
  /// monotone snapshot — the per-shard-lock consistency the old
  /// embedded cache provided mattered only because gauges and counters
  /// shared storage, which they no longer do.
  struct TenantCounters {
    std::atomic<uint64_t> Hits{0};
    std::atomic<uint64_t> Misses{0};
    std::atomic<uint64_t> SingleFlightWaits{0};
    std::atomic<uint64_t> DecodeErrors{0};
    std::atomic<uint64_t> FetchAttempts{0};
    std::atomic<uint64_t> FetchRetries{0};
    std::atomic<uint64_t> FetchFailures{0};
    std::atomic<uint64_t> FetchedBytes{0};
    std::atomic<uint64_t> FetchVirtualNanos{0};
  };

  std::string Spec;
  /// The chain table: entry 0 is the container's chain (Spec), any
  /// further entries are per-frame selection candidates, and
  /// FrameChain[Id] names the entry that decodes frame Id (all zero
  /// unless perPageChains()).
  std::vector<std::string> ChainSpecs;
  std::vector<std::vector<const pipeline::Codec *>> Chains;
  std::vector<uint32_t> FrameChain;
  pipeline::PayloadKind Kind = pipeline::PayloadKind::FuncImage;
  vm::VMProgram Skel;
  std::vector<FuncRecord> Funcs;
  uint32_t TotalPages = 0;
  std::vector<uint32_t> FrameFunc; ///< Frame id -> owning function.
  std::unique_ptr<FrameSource> Source;

  StoreOptions Opts;
  uint64_t Hash = 0; ///< Container content hash (registry key half).
  std::shared_ptr<FrameRegistry> Reg;
  bool PrivateReg = true;
  std::shared_ptr<ModuleHeat> Heat; ///< Shared across tenants of the module.
  mutable TenantCounters Cnt;

  /// Predicted-next frames, best first, indexed by frame id. Swapped
  /// wholesale under SuccMu (readers snapshot the shared_ptr), built by
  /// initStaticSuccessors or replaced by applyAccessProfile.
  struct SuccessorGraph {
    std::vector<std::vector<uint32_t>> Next;
    bool FromTrace = false;
  };
  mutable std::mutex SuccMu;
  std::shared_ptr<const SuccessorGraph> Succ;

  /// Per-tenant pin bookkeeping: which frames this store pinned, and at
  /// which registry entry generation. Guarded by PinMu, which is held
  /// across a pinning fault so two threads pinning the same frame on
  /// one tenant take exactly one registry reference.
  mutable std::mutex PinMu;
  std::vector<uint8_t> PinnedByMe;
  std::vector<uint64_t> PinGens;

  /// Frames with a warm submitted by warmFrames and not yet finished.
  mutable std::mutex WarmMu;
  std::unordered_set<uint32_t> WarmPending;
};

/// Decoded in-memory footprint we charge the cache for one function (or
/// one page body).
size_t decodedCostBytes(const vm::VMFunction &F);

/// True when \p Frame begins with the store-manifest magic ("CCSM").
/// Frame 0 of every image written by CodeStore::save is a manifest; a
/// bare codec archive (compressor_tool without --store) is not, and the
/// frame sources use this to reject it up front instead of letting a
/// function payload masquerade as a manifest.
bool isStoreManifest(ByteSpan Frame);

} // namespace store
} // namespace ccomp

#endif // CCOMP_STORE_CODESTORE_H
