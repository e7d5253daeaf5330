#include "store/cache.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "store/serialize.hpp"
#include "store/term_digest.hpp"

namespace ecucsp::store {

namespace {

std::filesystem::path shard_dir(const std::filesystem::path& base,
                                unsigned shard) {
  char name[16];
  std::snprintf(name, sizeof name, "shard-%02u", shard);
  return base / name;
}

}  // namespace

VerificationCache::VerificationCache(std::optional<std::filesystem::path> dir,
                                     unsigned shards) {
  const unsigned n = std::max(1u, shards);
  shards_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    if (dir) {
      s->disk = std::make_unique<ObjectStore>(n == 1 ? *dir
                                                     : shard_dir(*dir, i));
    }
    shards_.push_back(std::move(s));
  }
}

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
  Shard& s = shard(key);
  from_disk = false;
  {
    std::lock_guard lock(s.mu);
    if (auto it = s.memory.find(key); it != s.memory.end()) return it->second;
  }
  if (!s.disk) return nullptr;
  auto blob = s.disk->get(key);
  if (!blob) return nullptr;
  from_disk = true;
  auto shared =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(*blob));
  std::lock_guard lock(s.mu);
  // A racing fetch may have promoted the same object already; either copy
  // is identical, keep the first.
  return s.memory.try_emplace(key, std::move(shared)).first->second;
}

void VerificationCache::insert(const Digest& key,
                               std::vector<std::uint8_t> blob) {
  Shard& s = shard(key);
  auto shared =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(blob));
  if (s.disk) s.disk->put(key, *shared);
  std::lock_guard lock(s.mu);
  s.memory.try_emplace(key, std::move(shared));
  stats_.stores.fetch_add(1, std::memory_order_relaxed);
}

void VerificationCache::evict(const Digest& key) {
  Shard& s = shard(key);
  {
    std::lock_guard lock(s.mu);
    s.memory.erase(key);
  }
  if (s.disk) s.disk->drop(key);
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
  for (auto& s : shards_) {
    std::lock_guard lock(s->mu);
    s->memory.clear();
  }
}

std::size_t VerificationCache::trim(std::uint64_t max_bytes) {
  // Keys spread uniformly over shards, so an even per-shard budget keeps
  // the aggregate bound while letting each shard trim independently.
  const std::uint64_t per_shard = max_bytes / shards_.size();
  std::size_t evicted = 0;
  for (auto& s : shards_) {
    if (s->disk) evicted += s->disk->trim(per_shard);
  }
  return evicted;
}

std::vector<std::vector<std::string>> scan_stored_counterexamples(
    const std::filesystem::path& dir, Context& ctx) {
  namespace fs = std::filesystem;
  std::error_code ec;

  // Both store layouts: the flat <dir>/objects tree and sharded
  // <dir>/shard-NN/objects trees.
  std::vector<fs::path> roots;
  if (fs::is_directory(dir / "objects", ec)) roots.push_back(dir / "objects");
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_directory(ec)) continue;
    const std::string name = it->path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    if (fs::is_directory(it->path() / "objects", ec)) {
      roots.push_back(it->path() / "objects");
    }
  }
  if (roots.empty()) return {};

  std::vector<fs::path> files;
  for (const fs::path& root : roots) {
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file(ec)) files.push_back(it->path());
    }
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
