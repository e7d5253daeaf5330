// Two-tier cache and object-store tests: persistence, promotion, key
// invalidation and corruption recovery.
//
// The store is an accelerator, never a correctness dependency — so the
// properties pinned here are mostly about *failing safe*: a corrupted or
// truncated object is a miss (and is dropped so it cannot poison later
// runs), a key covers everything that could change a verdict, and nothing
// per-process leaks into a key (two Contexts agree on every key).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "refine/check.hpp"
#include "refine/lts.hpp"
#include "store/cache.hpp"
#include "store/object_store.hpp"
#include "store/serialize.hpp"
#include "store/term_digest.hpp"

namespace ecucsp::store {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const char* tag) {
    dir_ = fs::temp_directory_path() /
           ("ecucsp_store_test_" + std::string(tag) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

std::vector<std::uint8_t> bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

fs::path object_path(const fs::path& dir, const Digest& key) {
  const std::string hex = key.hex();
  return dir / "objects" / hex.substr(0, 2) / hex.substr(2);
}

// --- ObjectStore -------------------------------------------------------------

TEST(ObjectStore, PutGetDropRoundTrip) {
  TempDir tmp("roundtrip");
  ObjectStore os(tmp.path());
  const Digest key = digest_bytes("key");

  EXPECT_FALSE(os.get(key).has_value());  // miss before put, dir absent
  ASSERT_TRUE(os.put(key, bytes("blob contents")));
  const auto got = os.get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes("blob contents"));

  os.drop(key);
  EXPECT_FALSE(os.get(key).has_value());
  EXPECT_EQ(os.stats().hits.load(), 1u);
  EXPECT_EQ(os.stats().misses.load(), 2u);
  EXPECT_EQ(os.stats().corrupt_dropped.load(), 1u);
}

TEST(ObjectStore, OverwriteIsIdempotent) {
  TempDir tmp("overwrite");
  ObjectStore os(tmp.path());
  const Digest key = digest_bytes("k");
  ASSERT_TRUE(os.put(key, bytes("v1")));
  ASSERT_TRUE(os.put(key, bytes("v1")));  // same content, atomic replace
  EXPECT_EQ(*os.get(key), bytes("v1"));
  // No stray temp files left behind.
  std::size_t files = 0;
  for (const auto& e : fs::recursive_directory_iterator(tmp.path())) {
    if (e.is_regular_file()) ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(ObjectStore, MissingDirectoryIsJustAMiss) {
  ObjectStore os(fs::path("/definitely/not/a/real/dir"));
  EXPECT_FALSE(os.get(digest_bytes("x")).has_value());
}

TEST(ObjectStore, TrimEvictsOldestFirst) {
  TempDir tmp("trim");
  ObjectStore os(tmp.path());
  const Digest oldest = digest_bytes("oldest");
  const Digest middle = digest_bytes("middle");
  const Digest newest = digest_bytes("newest");
  const std::vector<std::uint8_t> blob(100, 0xAB);
  ASSERT_TRUE(os.put(oldest, blob));
  ASSERT_TRUE(os.put(middle, blob));
  ASSERT_TRUE(os.put(newest, blob));
  // Spread the mtimes explicitly — filesystem timestamp granularity would
  // otherwise make the LRU order a coin flip.
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(object_path(tmp.path(), oldest), now - std::chrono::hours(2));
  fs::last_write_time(object_path(tmp.path(), middle), now - std::chrono::hours(1));
  fs::last_write_time(object_path(tmp.path(), newest), now);

  EXPECT_EQ(os.trim(1000), 0u);  // under budget: nothing happens
  EXPECT_EQ(os.trim(250), 1u);   // 300 bytes stored, drop exactly the oldest
  EXPECT_FALSE(os.get(oldest).has_value());
  EXPECT_TRUE(os.get(middle).has_value());
  EXPECT_TRUE(os.get(newest).has_value());
  EXPECT_EQ(os.trim(0), 2u);
  EXPECT_FALSE(os.get(middle).has_value());
  EXPECT_FALSE(os.get(newest).has_value());
}

// --- key derivation ----------------------------------------------------------

/// A tiny spec/impl pair built fresh in any Context.
struct Terms {
  Context ctx;
  ProcessRef spec;
  ProcessRef impl;

  Terms() {
    const EventId a = ctx.event(ctx.channel("a"));
    const EventId b = ctx.event(ctx.channel("b"));
    spec = ctx.prefix(a, ctx.stop());
    impl = ctx.prefix(a, ctx.prefix(b, ctx.stop()));
  }
};

TEST(CacheKeys, StableAcrossContexts) {
  Terms one, two;
  EXPECT_EQ(VerificationCache::check_key(one.ctx, one.spec, one.impl,
                                         CheckOp::Refinement, Model::Failures,
                                         1 << 20),
            VerificationCache::check_key(two.ctx, two.spec, two.impl,
                                         CheckOp::Refinement, Model::Failures,
                                         1 << 20));
  EXPECT_EQ(VerificationCache::lts_key(one.ctx, one.impl, 1 << 20),
            VerificationCache::lts_key(two.ctx, two.impl, 1 << 20));
}

TEST(CacheKeys, EveryParameterInvalidates) {
  Terms t;
  const Digest base = VerificationCache::check_key(
      t.ctx, t.spec, t.impl, CheckOp::Refinement, Model::Traces, 1 << 20);
  // Different term.
  EXPECT_NE(base,
            VerificationCache::check_key(t.ctx, t.spec, t.spec,
                                         CheckOp::Refinement, Model::Traces,
                                         1 << 20));
  // Swapped roles: spec/impl are positional, A [T= B is not B [T= A.
  EXPECT_NE(base,
            VerificationCache::check_key(t.ctx, t.impl, t.spec,
                                         CheckOp::Refinement, Model::Traces,
                                         1 << 20));
  // Different model.
  EXPECT_NE(base,
            VerificationCache::check_key(t.ctx, t.spec, t.impl,
                                         CheckOp::Refinement, Model::Failures,
                                         1 << 20));
  // Different state budget (a budget-limited verdict is not a verdict).
  EXPECT_NE(base,
            VerificationCache::check_key(t.ctx, t.spec, t.impl,
                                         CheckOp::Refinement, Model::Traces,
                                         1 << 21));
  // Unary ops on the same impl are distinct questions.
  const Digest dl = VerificationCache::check_key(
      t.ctx, nullptr, t.impl, CheckOp::DeadlockFree, Model::Traces, 1 << 20);
  const Digest det = VerificationCache::check_key(
      t.ctx, nullptr, t.impl, CheckOp::Deterministic, Model::Traces, 1 << 20);
  EXPECT_NE(dl, det);
  EXPECT_NE(dl, base);
  // Verdict and LTS tiers never collide on the same term.
  EXPECT_NE(VerificationCache::lts_key(t.ctx, t.impl, 1 << 20), base);
  EXPECT_NE(VerificationCache::lts_key(t.ctx, t.impl, 1 << 20),
            VerificationCache::lts_key(t.ctx, t.impl, 1 << 21));
}

// --- VerificationCache tiers -------------------------------------------------

TEST(VerificationCacheTest, MemoryOnlyStoreThenHit) {
  VerificationCache cache;  // no dir: tier 1 only
  EXPECT_EQ(cache.disk(), nullptr);
  Terms t;
  EXPECT_FALSE(cache
                   .lookup_check(t.ctx, t.spec, t.impl, CheckOp::Refinement,
                                 Model::Traces, 1 << 20)
                   .has_value());

  const CheckResult res =
      check_refinement(t.ctx, t.spec, t.impl, Model::Traces, 1 << 20);
  cache.store_check(t.ctx, t.spec, t.impl, CheckOp::Refinement, Model::Traces,
                    1 << 20, res);

  // Hit from a *different* Context: the blob decodes into the caller.
  Terms u;
  const auto hit = cache.lookup_check(u.ctx, u.spec, u.impl,
                                      CheckOp::Refinement, Model::Traces,
                                      1 << 20);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->passed, res.passed);
  ASSERT_EQ(hit->counterexample.has_value(), res.counterexample.has_value());
  if (res.counterexample) {
    EXPECT_EQ(hit->counterexample->describe(u.ctx),
              res.counterexample->describe(t.ctx));
  }
  EXPECT_EQ(cache.stats().verdict_hits.load(), 1u);
  EXPECT_EQ(cache.stats().verdict_misses.load(), 1u);
  EXPECT_EQ(cache.stats().memory_hits.load(), 1u);
  EXPECT_EQ(cache.stats().stores.load(), 1u);
}

TEST(VerificationCacheTest, DiskTierSurvivesClearAndNewInstance) {
  TempDir tmp("disk_tier");
  Terms t;
  const CompactLts lts = compile_lts(t.ctx, t.impl);

  {
    VerificationCache cache(tmp.path());
    ASSERT_NE(cache.disk(), nullptr);
    cache.store_lts(t.ctx, t.impl, 1 << 20, lts);

    // Simulated process restart: memory gone, disk warm.
    cache.clear_memory();
    Terms u;
    const auto hit = cache.lookup_lts(u.ctx, u.impl, 1 << 20);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->state_count(), lts.state_count());
    EXPECT_EQ(cache.stats().disk_hits.load(), 1u);

    // The disk hit was promoted: the next lookup is served from memory.
    Terms v;
    ASSERT_TRUE(cache.lookup_lts(v.ctx, v.impl, 1 << 20).has_value());
    EXPECT_EQ(cache.stats().memory_hits.load(), 1u);
  }

  // A genuinely fresh cache instance over the same directory also hits.
  VerificationCache reopened(tmp.path());
  Terms w;
  ASSERT_TRUE(reopened.lookup_lts(w.ctx, w.impl, 1 << 20).has_value());
  EXPECT_EQ(reopened.stats().disk_hits.load(), 1u);
}

TEST(VerificationCacheTest, FreshInstanceServesAFailedVerdictFromDisk) {
  TempDir tmp("reopen");
  Terms t;
  const CheckResult res =
      check_refinement(t.ctx, t.spec, t.impl, Model::Traces, 1 << 16);
  ASSERT_FALSE(res.passed);
  {
    VerificationCache writer(tmp.path());
    writer.store_check(t.ctx, t.spec, t.impl, CheckOp::Refinement,
                       Model::Traces, 1 << 16, res);
    writer.store_lts(t.ctx, t.impl, 1 << 16, compile_lts(t.ctx, t.impl));
  }

  // Simulated restart: a brand-new instance (cold memory tier) over the
  // same directory serves both objects, counterexample included, from disk.
  VerificationCache reader(tmp.path());
  Terms u;
  const auto verdict = reader.lookup_check(
      u.ctx, u.spec, u.impl, CheckOp::Refinement, Model::Traces, 1 << 16);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_FALSE(verdict->passed);
  ASSERT_TRUE(verdict->counterexample.has_value());
  EXPECT_EQ(verdict->counterexample->describe(u.ctx),
            res.counterexample->describe(t.ctx));
  EXPECT_TRUE(reader.lookup_lts(u.ctx, u.impl, 1 << 16).has_value());
  EXPECT_EQ(reader.stats().disk_hits.load(), 2u);
}

TEST(VerificationCacheTest, CorruptedObjectIsEvictedNotServed) {
  TempDir tmp("corrupt");
  Terms t;
  VerificationCache cache(tmp.path());
  const CheckResult res =
      check_refinement(t.ctx, t.spec, t.impl, Model::Traces, 1 << 20);
  cache.store_check(t.ctx, t.spec, t.impl, CheckOp::Refinement, Model::Traces,
                    1 << 20, res);

  const Digest key = VerificationCache::check_key(
      t.ctx, t.spec, t.impl, CheckOp::Refinement, Model::Traces, 1 << 20);
  const fs::path obj = object_path(tmp.path(), key);
  ASSERT_TRUE(fs::exists(obj));

  // Overwrite with garbage; a fresh cache (cold memory) must treat it as a
  // miss, drop it, and keep working.
  {
    std::ofstream out(obj, std::ios::binary | std::ios::trunc);
    out << "not an envelope at all";
  }
  VerificationCache fresh(tmp.path());
  EXPECT_FALSE(fresh
                   .lookup_check(t.ctx, t.spec, t.impl, CheckOp::Refinement,
                                 Model::Traces, 1 << 20)
                   .has_value());
  EXPECT_EQ(fresh.stats().decode_failures.load(), 1u);
  EXPECT_FALSE(fs::exists(obj)) << "corrupt object not dropped";

  // And a re-store repopulates cleanly.
  fresh.store_check(t.ctx, t.spec, t.impl, CheckOp::Refinement, Model::Traces,
                    1 << 20, res);
  EXPECT_TRUE(fresh
                  .lookup_check(t.ctx, t.spec, t.impl, CheckOp::Refinement,
                                Model::Traces, 1 << 20)
                  .has_value());
}

TEST(VerificationCacheTest, TruncatedObjectIsEvictedNotServed) {
  TempDir tmp("truncate");
  Terms t;
  VerificationCache cache(tmp.path());
  const CompactLts lts = compile_lts(t.ctx, t.impl);
  cache.store_lts(t.ctx, t.impl, 1 << 20, lts);

  const Digest key = VerificationCache::lts_key(t.ctx, t.impl, 1 << 20);
  const fs::path obj = object_path(tmp.path(), key);
  ASSERT_TRUE(fs::exists(obj));
  const auto full = fs::file_size(obj);
  fs::resize_file(obj, full / 2);  // simulated torn write / disk-full tail

  VerificationCache fresh(tmp.path());
  EXPECT_FALSE(fresh.lookup_lts(t.ctx, t.impl, 1 << 20).has_value());
  EXPECT_EQ(fresh.stats().decode_failures.load(), 1u);
  EXPECT_FALSE(fs::exists(obj));
}

TEST(VerificationCacheTest, ForeignFormatVersionIsAMiss) {
  // An object written by a hypothetical future format version: valid file,
  // wrong envelope version. Must miss, not crash, not decode.
  TempDir tmp("version");
  Terms t;
  VerificationCache cache(tmp.path());
  const CompactLts lts = compile_lts(t.ctx, t.impl);
  cache.store_lts(t.ctx, t.impl, 1 << 20, lts);

  const Digest key = VerificationCache::lts_key(t.ctx, t.impl, 1 << 20);
  const fs::path obj = object_path(tmp.path(), key);
  std::ifstream in(obj, std::ios::binary);
  std::vector<char> blob((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  blob[4] = static_cast<char>(kStoreFormatVersion + 1);  // version varint
  {
    std::ofstream out(obj, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  VerificationCache fresh(tmp.path());
  EXPECT_FALSE(fresh.lookup_lts(t.ctx, t.impl, 1 << 20).has_value());
  EXPECT_EQ(fresh.stats().decode_failures.load(), 1u);
}

TEST(VerificationCacheTest, TrimDelegatesToDisk) {
  TempDir tmp("cache_trim");
  Terms t;
  VerificationCache cache(tmp.path());
  const CompactLts lts = compile_lts(t.ctx, t.impl);
  cache.store_lts(t.ctx, t.impl, 1 << 20, lts);
  cache.store_lts(t.ctx, t.spec, 1 << 20, compile_lts(t.ctx, t.spec));
  // Budget 0: every object goes.
  EXPECT_EQ(cache.trim(0), 2u);
  for (const auto& e : fs::recursive_directory_iterator(tmp.path())) {
    EXPECT_FALSE(e.is_regular_file()) << "left behind: " << e.path();
  }

  VerificationCache memory_only;
  EXPECT_EQ(memory_only.trim(0), 0u);
}

TEST(VerificationCacheTest, EndToEndThroughCheckEntryPoints) {
  // Install the cache globally and let check_refinement do the plumbing:
  // second identical call is served from cache, bit-for-bit.
  VerificationCache cache;
  ScopedCheckCache installed(&cache);

  Terms t;
  const CheckResult cold =
      check_refinement(t.ctx, t.spec, t.impl, Model::Failures, 1 << 20);
  EXPECT_FALSE(cold.from_cache);

  Terms u;
  const CheckResult warm =
      check_refinement(u.ctx, u.spec, u.impl, Model::Failures, 1 << 20);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.passed, cold.passed);
  ASSERT_EQ(warm.counterexample.has_value(), cold.counterexample.has_value());
  if (cold.counterexample) {
    EXPECT_EQ(warm.counterexample->describe(u.ctx),
              cold.counterexample->describe(t.ctx));
  }
  EXPECT_GE(cache.stats().verdict_hits.load(), 1u);

  // The unary checks go through the same hook.
  const CheckResult dl_cold = check_deadlock_free(t.ctx, t.impl, 1 << 20);
  const CheckResult dl_warm = check_deadlock_free(u.ctx, u.impl, 1 << 20);
  EXPECT_FALSE(dl_cold.from_cache);
  EXPECT_TRUE(dl_warm.from_cache);
  EXPECT_EQ(dl_warm.passed, dl_cold.passed);
}

}  // namespace
}  // namespace ecucsp::store
