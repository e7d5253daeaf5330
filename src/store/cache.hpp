// Two-tier incremental verification cache (the CheckCache implementation).
//
// Tier 1 is an in-process map of sealed blobs — shared by every worker
// thread of a batch run, so the fifteen cells of the OTA matrix compile
// each common subsystem LTS exactly once per process no matter the job
// count. Tier 2 is an optional on-disk ObjectStore, which makes verdicts
// survive the process: a rerun of an unchanged model hits every cell
// without a single state-space exploration.
//
// Both tiers store *sealed* envelopes (serialize.hpp), never decoded
// artifacts: decoded LTSes and verdicts are Context-bound, and workers
// each own a private Context. A lookup therefore decodes into the calling
// Context; any decode failure — foreign format version, truncation,
// bit-rot, a model whose channels changed shape — evicts the object and
// reports a miss.
//
// Keys are content digests: (artifact tag, kStoreFormatVersion, check
// op/model, state budget, structural term digests). Nothing per-Context
// or per-process leaks into a key, so caches are shareable across runs,
// processes and machines of the same endianness-independent format.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "refine/check.hpp"
#include "store/digest.hpp"
#include "store/object_store.hpp"

namespace ecucsp::store {

struct CacheStats {
  std::atomic<std::uint64_t> verdict_hits{0};
  std::atomic<std::uint64_t> verdict_misses{0};
  std::atomic<std::uint64_t> lts_hits{0};
  std::atomic<std::uint64_t> lts_misses{0};
  /// Hits broken down by serving tier (a disk hit is promoted to memory).
  std::atomic<std::uint64_t> memory_hits{0};
  std::atomic<std::uint64_t> disk_hits{0};
  std::atomic<std::uint64_t> stores{0};
  /// Sealed blobs that failed to decode and were evicted.
  std::atomic<std::uint64_t> decode_failures{0};
};

class VerificationCache final : public CheckCache {
 public:
  /// Memory-only when `dir` is empty; otherwise tier 2 persists under
  /// `dir/objects/...` (created lazily on first store).
  explicit VerificationCache(
      std::optional<std::filesystem::path> dir = std::nullopt);

  // CheckCache interface — thread-safe, each call decodes into the
  // caller's Context.
  std::optional<CheckResult> lookup_check(Context& ctx, ProcessRef spec,
                                          ProcessRef impl, CheckOp op,
                                          Model model,
                                          std::size_t max_states) override;
  void store_check(Context& ctx, ProcessRef spec, ProcessRef impl, CheckOp op,
                   Model model, std::size_t max_states,
                   const CheckResult& result) override;
  std::optional<CompactLts> lookup_lts(Context& ctx, ProcessRef root,
                                       std::size_t max_states) override;
  void store_lts(Context& ctx, ProcessRef root, std::size_t max_states,
                 const CompactLts& lts) override;

  /// Drop tier 1, keeping the disk store — lets one process simulate a
  /// cold restart against a warm directory (tests, benches).
  void clear_memory();

  /// Evict least-recently-used disk objects down to `max_bytes`.
  /// No-op (returns 0) for a memory-only cache.
  std::size_t trim(std::uint64_t max_bytes);

  const CacheStats& stats() const { return stats_; }
  /// The disk tier; null for a memory-only cache.
  const ObjectStore* disk() const { return disk_.get(); }

  // Key derivation, exposed for tests asserting invalidation behaviour.
  static Digest check_key(Context& ctx, ProcessRef spec, ProcessRef impl,
                          CheckOp op, Model model, std::size_t max_states);
  static Digest lts_key(Context& ctx, ProcessRef root, std::size_t max_states);

 private:
  using Blob = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// Memory first, then disk (promoting a disk hit). Null on miss.
  Blob fetch(const Digest& key, bool& from_disk);
  void insert(const Digest& key, std::vector<std::uint8_t> blob);
  void evict(const Digest& key);

  std::mutex mu_;  // guards memory_
  std::unordered_map<Digest, Blob, DigestHash> memory_;
  std::unique_ptr<ObjectStore> disk_;
  CacheStats stats_;
};

/// Harvest counterexamples from a persistent store directory (the layout
/// VerificationCache writes, <dir>/objects/<hex[0:2]>/<hex[2:]>): every
/// object that decodes as a *failed* check verdict in `ctx` contributes
/// its violating trace, rendered to event names (for trace violations the
/// offending event is appended — it is the attack step). Objects that are
/// LTSes, foreign formats, or verdicts of models whose channels do not
/// exist in `ctx` are skipped silently; the store is a scavenging ground,
/// not a schema. Order is deterministic (sorted by object path).
///
/// This is what lets the conformance layer (src/conform) replay attacks
/// found by earlier verification runs as concrete tests against the
/// simulated ECU.
std::vector<std::vector<std::string>> scan_stored_counterexamples(
    const std::filesystem::path& dir, Context& ctx);

}  // namespace ecucsp::store
