#include "store/cache.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "store/serialize.hpp"
#include "store/term_digest.hpp"

namespace ecucsp::store {

VerificationCache::VerificationCache(std::optional<std::filesystem::path> dir)
    : disk_(dir ? std::make_unique<ObjectStore>(*dir) : nullptr) {}

Digest VerificationCache::check_key(Context& ctx, ProcessRef spec,
                                    ProcessRef impl, CheckOp op, Model model,
                                    std::size_t max_states) {
  TermDigester td(ctx);
  Hasher h;
  h.str("ecucsp.verdict");
  h.u32(kStoreFormatVersion);
  h.u8(static_cast<std::uint8_t>(op));
  h.u8(static_cast<std::uint8_t>(model));
  h.u64(max_states);
  h.digest(spec ? td.term(spec) : Digest{});
  h.digest(td.term(impl));
  return h.finish();
}

Digest VerificationCache::lts_key(Context& ctx, ProcessRef root,
                                  std::size_t max_states) {
  TermDigester td(ctx);
  Hasher h;
  h.str("ecucsp.lts");
  h.u32(kStoreFormatVersion);
  h.u64(max_states);
  h.digest(td.term(root));
  return h.finish();
}

VerificationCache::Blob VerificationCache::fetch(const Digest& key,
                                                 bool& from_disk) {
  from_disk = false;
  {
    std::lock_guard lock(mu_);
    if (auto it = memory_.find(key); it != memory_.end()) return it->second;
  }
  if (!disk_) return nullptr;
  auto blob = disk_->get(key);
  if (!blob) return nullptr;
  from_disk = true;
  auto shared =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(*blob));
  std::lock_guard lock(mu_);
  // A racing fetch may have promoted the same object already; either copy
  // is identical, keep the first.
  return memory_.try_emplace(key, std::move(shared)).first->second;
}

void VerificationCache::insert(const Digest& key,
                               std::vector<std::uint8_t> blob) {
  auto shared =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(blob));
  if (disk_) disk_->put(key, *shared);
  std::lock_guard lock(mu_);
  memory_.try_emplace(key, std::move(shared));
  stats_.stores.fetch_add(1, std::memory_order_relaxed);
}

void VerificationCache::evict(const Digest& key) {
  {
    std::lock_guard lock(mu_);
    memory_.erase(key);
  }
  if (disk_) disk_->drop(key);
  stats_.decode_failures.fetch_add(1, std::memory_order_relaxed);
}

std::optional<CheckResult> VerificationCache::lookup_check(
    Context& ctx, ProcessRef spec, ProcessRef impl, CheckOp op, Model model,
    std::size_t max_states) {
  const Digest key = check_key(ctx, spec, impl, op, model, max_states);
  bool from_disk = false;
  const Blob blob = fetch(key, from_disk);
  if (!blob) {
    stats_.verdict_misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  try {
    CheckResult result = unseal_check(*blob, ctx);
    stats_.verdict_hits.fetch_add(1, std::memory_order_relaxed);
    (from_disk ? stats_.disk_hits : stats_.memory_hits)
        .fetch_add(1, std::memory_order_relaxed);
    return result;
  } catch (const SerializeError&) {
    evict(key);
    stats_.verdict_misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
}

void VerificationCache::store_check(Context& ctx, ProcessRef spec,
                                    ProcessRef impl, CheckOp op, Model model,
                                    std::size_t max_states,
                                    const CheckResult& result) {
  insert(check_key(ctx, spec, impl, op, model, max_states),
         seal_check(ctx, result));
}

std::optional<CompactLts> VerificationCache::lookup_lts(
    Context& ctx, ProcessRef root, std::size_t max_states) {
  const Digest key = lts_key(ctx, root, max_states);
  bool from_disk = false;
  const Blob blob = fetch(key, from_disk);
  if (!blob) {
    stats_.lts_misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  try {
    CompactLts lts = unseal_lts(*blob, ctx);
    stats_.lts_hits.fetch_add(1, std::memory_order_relaxed);
    (from_disk ? stats_.disk_hits : stats_.memory_hits)
        .fetch_add(1, std::memory_order_relaxed);
    return lts;
  } catch (const SerializeError&) {
    evict(key);
    stats_.lts_misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
}

void VerificationCache::store_lts(Context& ctx, ProcessRef root,
                                  std::size_t max_states,
                                  const CompactLts& lts) {
  insert(lts_key(ctx, root, max_states), seal_lts(ctx, lts));
}

void VerificationCache::clear_memory() {
  std::lock_guard lock(mu_);
  memory_.clear();
}

std::size_t VerificationCache::trim(std::uint64_t max_bytes) {
  return disk_ ? disk_->trim(max_bytes) : 0;
}

std::vector<std::vector<std::string>> scan_stored_counterexamples(
    const std::filesystem::path& dir, Context& ctx) {
  namespace fs = std::filesystem;
  std::error_code ec;

  const fs::path root = dir / "objects";
  if (!fs::is_directory(root, ec)) return {};

  std::vector<fs::path> files;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());

  std::vector<std::vector<std::string>> out;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) continue;
    std::vector<std::uint8_t> blob{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
    CheckResult result;
    try {
      result = unseal_check(blob, ctx);
    } catch (const std::exception&) {
      continue;  // LTS object, foreign format, or incompatible model
    }
    if (result.passed || !result.counterexample) continue;
    std::vector<std::string> trace = result.counterexample->trace_names(ctx);
    if (!trace.empty()) out.push_back(std::move(trace));
  }
  return out;
}

}  // namespace ecucsp::store
