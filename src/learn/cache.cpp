#include "learn/cache.hpp"

#include <algorithm>

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
  const conform::Dfa& dfa = h.dfa;
  store::ByteWriter w;
  w.uv(dfa.names.size());
  for (const std::string& e : dfa.names) w.str(e);
  w.uv(dfa.root);
  w.uv(dfa.state_count());
  // One entry per (state, name): 0 for no edge, target + 1 otherwise —
  // varint-friendly, no sentinel clash.
  std::vector<std::uint64_t> row(dfa.names.size());
  for (std::uint32_t s = 0; s < dfa.state_count(); ++s) {
    std::fill(row.begin(), row.end(), 0);
    for (std::uint32_t k = dfa.begin(s); k < dfa.end(s); ++k) {
      row[dfa.labels[k]] = std::uint64_t{dfa.targets[k]} + 1;
    }
    for (const std::uint64_t t : row) w.uv(t);
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
    const std::uint64_t k = r.uv();
    if (k > r.remaining()) return std::nullopt;
    std::vector<std::string> names;
    names.reserve(k);
    for (std::uint64_t i = 0; i < k; ++i) {
      names.push_back(r.str());
      // The table entries below are positional: a table that is not
      // strictly ascending would shift them onto other names.
      if (i > 0 && !(names[i - 1] < names[i])) return std::nullopt;
    }
    const std::uint64_t root = r.uv();
    const std::uint64_t n = r.uv();
    if (root >= n) return std::nullopt;  // n == 0 included: no root state
    // Each state takes k table entries plus its access-word length.
    if (n > r.remaining() / (k + 1)) return std::nullopt;
    conform::DfaBuilder dfa(std::move(names));
    for (std::uint64_t s = 0; s < n; ++s) {
      for (std::uint64_t a = 0; a < k; ++a) {
        const std::uint64_t t = r.uv();
        if (t == 0) continue;
        if (t > n) return std::nullopt;
        dfa.edge(static_cast<std::uint32_t>(a),
                 static_cast<std::uint32_t>(t - 1));
      }
      dfa.end_state();
    }
    Hypothesis h;
    h.dfa = std::move(dfa).finish(static_cast<std::uint32_t>(root));
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
