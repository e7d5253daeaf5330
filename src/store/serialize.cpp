#include "store/serialize.hpp"

namespace ecucsp::store {

namespace {

constexpr std::uint8_t kMagic[4] = {'E', 'C', 'S', 'P'};

constexpr std::uint8_t kEvTau = 0;
constexpr std::uint8_t kEvTick = 1;
constexpr std::uint8_t kEvUser = 2;

void put_u64_raw(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_u64_raw(std::span<const std::uint8_t> b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
  return v;
}

/// An element count, bounded by the bytes left (every element takes at
/// least one) before anything is sized by it.
std::size_t read_count(ByteReader& r) {
  const std::uint64_t n = r.uv();
  if (n > r.remaining()) throw SerializeError("count exceeds payload");
  return static_cast<std::size_t>(n);
}

}  // namespace

void ByteWriter::uv(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::iv(std::int64_t v) {
  uv((static_cast<std::uint64_t>(v) << 1) ^
     static_cast<std::uint64_t>(v >> 63));
}

void ByteWriter::str(std::string_view s) {
  uv(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint8_t ByteReader::u8() {
  if (pos_ >= data_.size()) throw SerializeError("truncated payload");
  return data_[pos_++];
}

std::uint64_t ByteReader::uv() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return v;
  }
  throw SerializeError("overlong varint");
}

std::int64_t ByteReader::iv() {
  const std::uint64_t z = uv();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::string ByteReader::str() {
  const std::uint64_t n = uv();
  if (n > data_.size() - pos_) throw SerializeError("truncated string");
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return out;
}

std::vector<std::uint8_t> seal(ArtifactKind kind,
                               std::vector<std::uint8_t> payload) {
  const Digest d = digest_bytes(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
  ByteWriter head;
  for (const std::uint8_t b : kMagic) head.u8(b);
  head.uv(kStoreFormatVersion);
  head.u8(static_cast<std::uint8_t>(kind));
  head.uv(payload.size());
  std::vector<std::uint8_t> out = head.take();
  out.reserve(out.size() + payload.size() + 16);
  out.insert(out.end(), payload.begin(), payload.end());
  put_u64_raw(out, d.hi);
  put_u64_raw(out, d.lo);
  return out;
}

std::span<const std::uint8_t> unseal(ArtifactKind kind,
                                     std::span<const std::uint8_t> blob) {
  if (blob.size() < 4 || !std::equal(kMagic, kMagic + 4, blob.begin())) {
    throw SerializeError("bad magic");
  }
  ByteReader head(blob.subspan(4));
  if (head.uv() != kStoreFormatVersion) throw SerializeError("format version mismatch");
  if (head.u8() != static_cast<std::uint8_t>(kind)) throw SerializeError("artifact kind mismatch");
  const std::uint64_t len = head.uv();
  const std::size_t consumed = 4 + head.tell();
  if (len > blob.size() || blob.size() < consumed + len + 16) {
    throw SerializeError("truncated envelope");
  }
  const auto payload = blob.subspan(consumed, static_cast<std::size_t>(len));
  const Digest want{get_u64_raw(blob, consumed + len),
                    get_u64_raw(blob, consumed + len + 8)};
  const Digest got = digest_bytes(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
  if (!(want == got)) throw SerializeError("payload digest mismatch");
  if (blob.size() != consumed + len + 16) throw SerializeError("trailing garbage");
  return payload;
}

// --- values and events -------------------------------------------------------

void encode_value(ByteWriter& w, const Context& ctx, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Int:
      w.u8(0);
      w.iv(v.as_int());
      return;
    case Value::Kind::Sym:
      w.u8(1);
      w.str(ctx.symbols().name(v.as_sym()));
      return;
    case Value::Kind::Tuple: {
      w.u8(2);
      const auto& fields = v.as_tuple();
      w.uv(fields.size());
      for (const Value& f : fields) encode_value(w, ctx, f);
      return;
    }
  }
}

Value decode_value(ByteReader& r, Context& ctx) {
  switch (r.u8()) {
    case 0:
      return Value::integer(r.iv());
    case 1:
      return Value::symbol(ctx.sym(r.str()));
    case 2: {
      const std::size_t n = read_count(r);
      std::vector<Value> fields;
      fields.reserve(n);
      for (std::size_t i = 0; i < n; ++i) fields.push_back(decode_value(r, ctx));
      return Value::tuple(std::move(fields));
    }
    default:
      throw SerializeError("unknown value kind");
  }
}

void encode_event(ByteWriter& w, const Context& ctx, EventId e) {
  if (e == TAU) {
    w.u8(kEvTau);
    return;
  }
  if (e == TICK) {
    w.u8(kEvTick);
    return;
  }
  w.u8(kEvUser);
  const ChannelDecl& chan = ctx.channel_decl(ctx.event_channel(e));
  w.str(ctx.symbols().name(chan.name));
  const auto& fields = ctx.event_fields(e);
  w.uv(fields.size());
  for (const Value& f : fields) encode_value(w, ctx, f);
}

EventId decode_event(ByteReader& r, Context& ctx) {
  switch (r.u8()) {
    case kEvTau:
      return TAU;
    case kEvTick:
      return TICK;
    case kEvUser:
      break;
    default:
      throw SerializeError("unknown event tag");
  }
  const std::string chan_name = r.str();
  const auto chan = ctx.find_channel(chan_name);
  if (!chan) throw SerializeError("unknown channel '" + chan_name + "'");
  const std::size_t n = read_count(r);
  std::vector<Value> fields;
  fields.reserve(n);
  for (std::size_t i = 0; i < n; ++i) fields.push_back(decode_value(r, ctx));
  try {
    return ctx.event(*chan, std::move(fields));
  } catch (const ModelError& e) {
    throw SerializeError(std::string("event outside channel domain: ") +
                         e.what());
  }
}

void encode_event_set(ByteWriter& w, const Context& ctx, const EventSet& es) {
  w.uv(es.size());
  for (const EventId e : es) encode_event(w, ctx, e);
}

EventSet decode_event_set(ByteReader& r, Context& ctx) {
  const std::size_t n = read_count(r);
  std::vector<EventId> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) events.push_back(decode_event(r, ctx));
  return EventSet(std::move(events));
}

// --- LTS ---------------------------------------------------------------------

std::vector<std::uint8_t> encode_lts(const Context& ctx,
                                     const CompactLts& lts) {
  ByteWriter w;
  // Event table in order of first appearance; transitions reference it by
  // index so each event's (channel, fields) spelling is written once.
  constexpr std::uint64_t kUnlisted = ~std::uint64_t{0};
  std::vector<std::uint64_t> index(lts.alphabet.size(), kUnlisted);
  std::vector<EventId> table;
  for (const LocalEvent le : lts.events) {
    if (index[le] == kUnlisted) {
      index[le] = table.size();
      table.push_back(lts.global_event(le));
    }
  }
  w.uv(table.size());
  for (const EventId e : table) encode_event(w, ctx, e);

  w.uv(lts.state_count());
  w.uv(lts.root);
  for (StateId s = 0; s < lts.state_count(); ++s) {
    w.u8(lts.is_omega(s) ? 1 : 0);
    w.uv(lts.degree(s));
    for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
      w.uv(index[lts.events[k]]);
      w.uv(lts.targets[k]);
    }
  }
  return w.take();
}

CompactLts decode_lts(ByteReader& r, Context& ctx) {
  const std::size_t table_size = read_count(r);
  std::vector<EventId> table;
  table.reserve(table_size);
  for (std::size_t i = 0; i < table_size; ++i) table.push_back(decode_event(r, ctx));

  const std::size_t n = read_count(r);
  if (n == 0) throw SerializeError("empty LTS");
  const std::uint64_t root = r.uv();
  if (root >= n) throw SerializeError("root out of range");
  CompactBuilder lts;
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint8_t omega = r.u8();
    if (omega > 1) throw SerializeError("bad omega flag");
    const std::size_t k = read_count(r);
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t ev = r.uv();
      const std::uint64_t target = r.uv();
      if (ev >= table.size()) throw SerializeError("event index out of range");
      if (target >= n) throw SerializeError("transition target out of range");
      lts.edge(table[static_cast<std::size_t>(ev)],
               static_cast<StateId>(target));
    }
    lts.end_state(omega != 0);
  }
  return std::move(lts).finish(static_cast<StateId>(root));
}

std::vector<std::uint8_t> seal_lts(const Context& ctx, const CompactLts& lts) {
  return seal(ArtifactKind::Machine, encode_lts(ctx, lts));
}

CompactLts unseal_lts(std::span<const std::uint8_t> blob, Context& ctx) {
  ByteReader r(unseal(ArtifactKind::Machine, blob));
  CompactLts lts = decode_lts(r, ctx);
  if (!r.at_end()) throw SerializeError("trailing bytes in LTS payload");
  return lts;
}

// --- check verdicts ----------------------------------------------------------

std::vector<std::uint8_t> encode_check(const Context& ctx,
                                       const CheckResult& res) {
  ByteWriter w;
  w.u8(res.passed ? 1 : 0);
  w.u8(res.vacuous ? 1 : 0);
  w.u8(res.pruned ? 1 : 0);
  w.u8(res.counterexample ? 1 : 0);
  if (res.counterexample) {
    const Counterexample& c = *res.counterexample;
    w.u8(static_cast<std::uint8_t>(c.kind));
    w.uv(c.trace.size());
    for (const EventId e : c.trace) encode_event(w, ctx, e);
    encode_event(w, ctx, c.event);
    encode_event_set(w, ctx, c.impl_acceptance);
  }
  w.uv(res.stats.impl_states);
  w.uv(res.stats.impl_transitions);
  w.uv(res.stats.spec_states);
  w.uv(res.stats.spec_norm_nodes);
  w.uv(res.stats.product_states);
  return w.take();
}

CheckResult decode_check(ByteReader& r, Context& ctx) {
  CheckResult res;
  const std::uint8_t passed = r.u8();
  if (passed > 1) throw SerializeError("bad passed flag");
  res.passed = passed == 1;
  const std::uint8_t vacuous = r.u8();
  if (vacuous > 1) throw SerializeError("bad vacuous flag");
  res.vacuous = vacuous == 1;
  const std::uint8_t pruned = r.u8();
  if (pruned > 1) throw SerializeError("bad pruned flag");
  res.pruned = pruned == 1;
  const std::uint8_t has_cex = r.u8();
  if (has_cex > 1) throw SerializeError("bad counterexample flag");
  if (has_cex) {
    Counterexample c;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(Counterexample::Kind::Nondeterminism)) {
      throw SerializeError("bad counterexample kind");
    }
    c.kind = static_cast<Counterexample::Kind>(kind);
    const std::size_t n = read_count(r);
    c.trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) c.trace.push_back(decode_event(r, ctx));
    c.event = decode_event(r, ctx);
    c.impl_acceptance = decode_event_set(r, ctx);
    res.counterexample = std::move(c);
  }
  res.stats.impl_states = static_cast<std::size_t>(r.uv());
  res.stats.impl_transitions = static_cast<std::size_t>(r.uv());
  res.stats.spec_states = static_cast<std::size_t>(r.uv());
  res.stats.spec_norm_nodes = static_cast<std::size_t>(r.uv());
  res.stats.product_states = static_cast<std::size_t>(r.uv());
  return res;
}

std::vector<std::uint8_t> seal_check(const Context& ctx,
                                     const CheckResult& res) {
  return seal(ArtifactKind::Verdict, encode_check(ctx, res));
}

CheckResult unseal_check(std::span<const std::uint8_t> blob, Context& ctx) {
  ByteReader r(unseal(ArtifactKind::Verdict, blob));
  CheckResult res = decode_check(r, ctx);
  if (!r.at_end()) throw SerializeError("trailing bytes in verdict payload");
  return res;
}

}  // namespace ecucsp::store
