#include "security/intruder.hpp"

#include <algorithm>

namespace ecucsp::security {

namespace {

Value encode_knowledge(const std::set<Value>& knowledge) {
  return Value::tuple({knowledge.begin(), knowledge.end()});
}

std::set<Value> decode_knowledge(const Value& v) {
  const auto& items = v.as_tuple();
  return {items.begin(), items.end()};
}

}  // namespace

ProcessRef build_intruder(const TermAlgebra& terms, const IntruderConfig& cfg) {
  Context& ctx = terms.context();
  const std::string name = cfg.name;

  // The definition unfolds lazily: each distinct knowledge set becomes one
  // memoised process. Capture what we need by value.
  const IntruderConfig config = cfg;
  const TermAlgebra algebra = terms;

  ctx.define(name, [config, algebra, name](Context& cx,
                                           std::span<const Value> args) {
    const std::set<Value> knowledge = decode_knowledge(args[0]);

    std::vector<ProcessRef> branches;

    // Overhear any transmission: learn the payload. The grown knowledge
    // depends only on the message, so close it once per message.
    std::vector<Value> heard;
    heard.reserve(config.messages.size());
    for (const Value& m : config.messages) {
      std::set<Value> grown = knowledge;
      grown.insert(m);
      heard.push_back(
          encode_knowledge(algebra.close(std::move(grown), config.universe)));
    }
    for (const Value& from : config.agents) {
      for (const Value& to : config.agents) {
        for (std::size_t i = 0; i < config.messages.size(); ++i) {
          const EventId hear =
              cx.event(config.hear_channel, {from, to, config.messages[i]});
          branches.push_back(cx.prefix(hear, cx.var(name, {heard[i]})));
        }
      }
    }

    // Inject any derivable message with any claimed sender to any recipient.
    for (const Value& m : config.messages) {
      if (!knowledge.contains(m)) continue;
      for (const Value& from : config.agents) {
        for (const Value& to : config.agents) {
          const EventId say = cx.event(config.say_channel, {from, to, m});
          branches.push_back(cx.prefix(say, cx.var(name, {args[0]})));
        }
      }
    }

    return cx.ext_choice(branches);
  });

  const Value initial = encode_knowledge(
      terms.close({cfg.initial_knowledge.begin(), cfg.initial_knowledge.end()},
                  cfg.universe));
  return ctx.var(name, {initial});
}

}  // namespace ecucsp::security
