#include "security/intruder.hpp"

#include <memory>

namespace ecucsp::security {

namespace {

/// What every unfolding of one intruder shares: the term index, the ids of
/// the network messages, and the hear and say events, each interned on
/// first use and kept in a (from, to, message) table.
struct IntruderState {
  IntruderState(const TermAlgebra& terms, const IntruderConfig& config)
      : cfg(config),
        name(terms.context().sym(config.name)),
        index(terms, config.universe, extra_terms(config)),
        hear(slots(config), kUnset),
        say(slots(config), kUnset) {
    for (const Value& m : cfg.messages) message_ids.push_back(index.id(m));
  }

  static std::vector<Value> extra_terms(const IntruderConfig& c) {
    std::vector<Value> out = c.messages;
    out.insert(out.end(), c.initial_knowledge.begin(),
               c.initial_knowledge.end());
    return out;
  }
  static std::size_t slots(const IntruderConfig& c) {
    return c.agents.size() * c.agents.size() * c.messages.size();
  }

  EventId event(Context& cx, std::vector<EventId>& table, ChannelId chan,
                std::size_t from, std::size_t to, std::size_t m) {
    const std::size_t agents = cfg.agents.size();
    EventId& slot = table[(from * agents + to) * cfg.messages.size() + m];
    if (slot == kUnset) {
      slot = cx.event(chan,
                      {cfg.agents[from], cfg.agents[to], cfg.messages[m]});
    }
    return slot;
  }

  ProcessRef state(Context& cx, const TermIndex::Bits& known) const {
    std::vector<Value> words;
    words.reserve(known.size());
    for (const std::uint64_t w : known) {
      words.push_back(Value::integer(static_cast<std::int64_t>(w)));
    }
    return cx.var(name, {Value::tuple(std::move(words))});
  }

  static constexpr EventId kUnset = ~EventId{0};
  const IntruderConfig cfg;
  const Symbol name;
  const TermIndex index;
  std::vector<TermIndex::Id> message_ids;
  std::vector<EventId> hear;
  std::vector<EventId> say;
};

}  // namespace

ProcessRef build_intruder(const TermAlgebra& terms, const IntruderConfig& cfg) {
  Context& ctx = terms.context();
  // The definition unfolds lazily: each distinct knowledge set becomes one
  // memoised process.
  const auto st = std::make_shared<IntruderState>(terms, cfg);

  ctx.define(cfg.name, [st](Context& cx, std::span<const Value> args) {
    const TermIndex& index = st->index;
    TermIndex::Bits known;
    for (const Value& w : args[0].as_tuple()) {
      known.push_back(static_cast<std::uint64_t>(w.as_int()));
    }
    const ProcessRef self = cx.var(st->name, {args[0]});
    const std::size_t agents = st->cfg.agents.size();
    const std::size_t messages = st->message_ids.size();

    // Overhear any transmission: learn the payload. The grown knowledge
    // depends only on the message, so close it once per message.
    std::vector<ProcessRef> heard(messages, self);
    for (std::size_t i = 0; i < messages; ++i) {
      if (TermIndex::has(known, st->message_ids[i])) continue;
      TermIndex::Bits grown = known;
      index.learn(grown, st->message_ids[i]);
      heard[i] = st->state(cx, grown);
    }
    std::vector<ProcessRef> branches;
    branches.reserve(agents * agents * messages * 2);
    for (std::size_t from = 0; from < agents; ++from) {
      for (std::size_t to = 0; to < agents; ++to) {
        for (std::size_t i = 0; i < messages; ++i) {
          branches.push_back(cx.prefix(
              st->event(cx, st->hear, st->cfg.hear_channel, from, to, i),
              heard[i]));
        }
      }
    }

    // Inject any derivable message with any claimed sender to any recipient.
    for (std::size_t i = 0; i < messages; ++i) {
      if (!TermIndex::has(known, st->message_ids[i])) continue;
      for (std::size_t from = 0; from < agents; ++from) {
        for (std::size_t to = 0; to < agents; ++to) {
          branches.push_back(cx.prefix(
              st->event(cx, st->say, st->cfg.say_channel, from, to, i), self));
        }
      }
    }

    return cx.ext_choice(branches);
  });

  TermIndex::Bits initial = st->index.none();
  for (const Value& v : cfg.initial_knowledge) {
    st->index.learn(initial, st->index.id(v));
  }
  return st->state(ctx, initial);
}

}  // namespace ecucsp::security
