#include "learn/cache.hpp"

#include "store/serialize.hpp"

namespace ecucsp::learn {

store::Digest LearnCacheKey::digest() const {
  store::Hasher h;
  h.str("learn-hypothesis");
  h.u32(store::kStoreFormatVersion);
  h.str(ecu_source);
  h.u64(seed);
  h.u64(rounds);
  h.u64(eq_tests);
  h.u64(max_len);
  h.u64(alphabet.size());
  for (const std::string& e : alphabet) h.str(e);
  return h.finish();
}

std::vector<std::uint8_t> encode_hypothesis(const Hypothesis& h) {
  store::ByteWriter w;
  w.uv(h.alphabet.size());
  for (const std::string& e : h.alphabet) w.str(e);
  w.uv(h.root);
  w.uv(h.state_count());
  for (const auto& row : h.succ) {
    for (std::uint32_t t : row) {
      // DEAD -> 0, state s -> s + 1: varint-friendly, no sentinel clash.
      w.uv(t == Hypothesis::DEAD ? 0 : static_cast<std::uint64_t>(t) + 1);
    }
  }
  for (const Word& a : h.access) {
    w.uv(a.size());
    for (const std::string& e : a) w.str(e);
  }
  return store::seal(store::ArtifactKind::LearnedModel, w.take());
}

std::optional<Hypothesis> decode_hypothesis(
    std::span<const std::uint8_t> blob) {
  try {
    store::ByteReader r(
        store::unseal(store::ArtifactKind::LearnedModel, blob));
    // Every count is bounded by the bytes left before it sizes anything:
    // each name, table entry and access-word event takes at least one byte.
    Hypothesis h;
    const std::uint64_t k = r.uv();
    if (k > r.remaining()) return std::nullopt;
    h.alphabet.reserve(k);
    for (std::uint64_t i = 0; i < k; ++i) h.alphabet.push_back(r.str());
    h.root = static_cast<std::uint32_t>(r.uv());
    const std::uint64_t n = r.uv();
    if (h.root >= n && n > 0) return std::nullopt;
    // Each state takes k table entries plus its access-word length.
    if (n > r.remaining() / (k + 1)) return std::nullopt;
    h.succ.assign(n, std::vector<std::uint32_t>(k, Hypothesis::DEAD));
    for (std::uint64_t s = 0; s < n; ++s) {
      for (std::uint64_t a = 0; a < k; ++a) {
        const std::uint64_t t = r.uv();
        if (t == 0) continue;
        if (t > n) return std::nullopt;
        h.succ[s][a] = static_cast<std::uint32_t>(t - 1);
      }
    }
    h.access.resize(n);
    for (std::uint64_t s = 0; s < n; ++s) {
      const std::uint64_t len = r.uv();
      if (len > r.remaining()) return std::nullopt;
      h.access[s].reserve(len);
      for (std::uint64_t i = 0; i < len; ++i) {
        h.access[s].push_back(r.str());
      }
    }
    if (!r.at_end()) return std::nullopt;
    return h;
  } catch (const store::SerializeError&) {
    return std::nullopt;
  }
}

void store_hypothesis(store::ObjectStore& os, const LearnCacheKey& key,
                      const Hypothesis& h) {
  os.put(key.digest(), encode_hypothesis(h));
}

std::optional<Hypothesis> load_hypothesis(store::ObjectStore& os,
                                          const LearnCacheKey& key) {
  const auto blob = os.get(key.digest());
  if (!blob) return std::nullopt;
  return decode_hypothesis(*blob);
}

}  // namespace ecucsp::learn
