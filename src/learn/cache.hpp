// Learned-model caching: content-addressed persistence of hypotheses.
//
// Learning a model costs hundreds of harness runs; the result is a pure
// function of (ECU source, mutation, learning parameters, seed). So the
// hypothesis is cached in the same on-disk ObjectStore the verification
// cache uses, keyed on exactly those inputs, sealed in the store's
// versioned envelope under ArtifactKind::LearnedModel. Unlike LTS/verdict
// artifacts the payload is *not* Context-bound — a hypothesis is a Dfa
// over event names plus access words — so encode/decode live here rather
// than in store/serialize.cpp, and only the envelope (magic, format
// version, kind byte, digest seal) is borrowed from seal()/unseal().
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "learn/learner.hpp"
#include "store/digest.hpp"
#include "store/object_store.hpp"

namespace ecucsp::learn {

/// Everything the learned model is a function of. The store format version
/// participates too, so format bumps invalidate keys instead of decoding
/// stale blobs.
struct LearnCacheKey {
  std::string_view ecu_source;      // post-mutation CAPL text
  std::uint64_t seed = 1;
  std::size_t rounds = 0;
  std::size_t eq_tests = 0;
  std::size_t max_len = 0;
  std::vector<std::string> alphabet;

  store::Digest digest() const;
};

/// Sealed LearnedModel envelope for `h`.
std::vector<std::uint8_t> encode_hypothesis(const Hypothesis& h);

/// Decode a sealed LearnedModel envelope; nullopt on any mismatch
/// (foreign format, truncation, corrupted payload, no states, a root or
/// target outside them, a name table that is not strictly ascending) — a
/// cache miss, never an error.
std::optional<Hypothesis> decode_hypothesis(
    std::span<const std::uint8_t> blob);

/// Store / load through an ObjectStore directory.
void store_hypothesis(store::ObjectStore& os, const LearnCacheKey& key,
                      const Hypothesis& h);
std::optional<Hypothesis> load_hypothesis(store::ObjectStore& os,
                                          const LearnCacheKey& key);

}  // namespace ecucsp::learn
