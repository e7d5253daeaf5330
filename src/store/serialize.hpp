// Versioned binary serialization for store artifacts.
//
// Three artifact kinds are stored: compiled machines, check verdicts
// (CheckResult incl. counterexample), and learned hypothesis automata
// (ArtifactKind::LearnedModel; encoded by src/learn over the same
// ByteWriter/seal envelope). The first two are Context-bound in memory
// (EventIds, ProcessRefs), so the wire format replaces every EventId with
// its (channel name, field values) spelling and decodes by re-interning
// into the caller's Context — decoding into a Context whose model declares
// the same channels reproduces the exact in-memory artifact.
//
// Format discipline:
//   * every payload is wrapped in an envelope: magic, kStoreFormatVersion,
//     a kind byte, the payload length, the payload, and a trailing digest
//     of the payload;
//   * loads verify all of it and throw SerializeError on any mismatch —
//     the store layer turns that into a cache miss, never a crash. Every
//     element count read from a payload is bounded by the bytes that
//     remain before it sizes an allocation;
//   * any change to the encoding bumps kStoreFormatVersion, which also
//     participates in every cache key, so stale-format objects are simply
//     never looked up (and unreadable if addressed directly).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "refine/check.hpp"
#include "refine/compact.hpp"
#include "store/digest.hpp"

namespace ecucsp::store {

/// Bump on any wire-format or digest-scheme change.
inline constexpr std::uint32_t kStoreFormatVersion = 3;  // v3: pruned flag

enum class ArtifactKind : std::uint8_t {
  /// A compiled machine (CompactLts), the store's LTS tier.
  Machine = 1,
  Verdict = 2,
  /// A hypothesis automaton produced by the active learner (src/learn):
  /// plain string-event edges, not Context-bound — the learner encodes and
  /// decodes the payload itself (learn/cache.cpp) and only borrows the
  /// envelope (magic/version/kind/digest) from seal()/unseal(). A new kind
  /// byte is not a wire-format change for existing artifacts, so the
  /// format version stays put.
  LearnedModel = 3,
};

class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& what)
      : std::runtime_error("store decode: " + what) {}
};

/// Little-endian byte sink: varint-coded unsigned ints, zigzag signed,
/// length-framed strings.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void uv(std::uint64_t v);    // varint
  void iv(std::int64_t v);     // zigzag varint
  void str(std::string_view s);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a decoded payload; throws SerializeError on
/// truncation or malformed varints.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint64_t uv();
  std::int64_t iv();
  std::string str();
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t tell() const { return pos_; }
  /// Bytes left to read: an upper bound on any element count still to
  /// come, since every encoded element takes at least one byte.
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Wrap `payload` in the versioned, digest-sealed envelope.
std::vector<std::uint8_t> seal(ArtifactKind kind,
                               std::vector<std::uint8_t> payload);

/// Verify magic/version/kind/length/digest; returns the payload view into
/// `blob`. Throws SerializeError on any mismatch.
std::span<const std::uint8_t> unseal(ArtifactKind kind,
                                     std::span<const std::uint8_t> blob);

// --- values and events -------------------------------------------------------

void encode_value(ByteWriter& w, const Context& ctx, const Value& v);
Value decode_value(ByteReader& r, Context& ctx);

void encode_event(ByteWriter& w, const Context& ctx, EventId e);
/// Re-interns by channel name + fields; throws SerializeError if the
/// channel is unknown or the fields lie outside its declared domains.
EventId decode_event(ByteReader& r, Context& ctx);

void encode_event_set(ByteWriter& w, const Context& ctx, const EventSet& es);
EventSet decode_event_set(ByteReader& r, Context& ctx);

// --- LTS ---------------------------------------------------------------------

/// Payload encoding (no envelope): the event table in order of first
/// appearance, the state count and root, then per state its Omega byte and
/// its row as (table index, target) pairs. Post-tick flags and the interned
/// alphabet are derived data and are rebuilt on decode (CompactBuilder), in
/// the decoding Context's event order.
std::vector<std::uint8_t> encode_lts(const Context& ctx, const CompactLts& lts);
CompactLts decode_lts(ByteReader& r, Context& ctx);

/// Envelope convenience: seal/unseal + payload encode/decode.
std::vector<std::uint8_t> seal_lts(const Context& ctx, const CompactLts& lts);
CompactLts unseal_lts(std::span<const std::uint8_t> blob, Context& ctx);

// --- check verdicts ----------------------------------------------------------

std::vector<std::uint8_t> encode_check(const Context& ctx,
                                       const CheckResult& r);
CheckResult decode_check(ByteReader& r, Context& ctx);

std::vector<std::uint8_t> seal_check(const Context& ctx, const CheckResult& r);
CheckResult unseal_check(std::span<const std::uint8_t> blob, Context& ctx);

}  // namespace ecucsp::store
