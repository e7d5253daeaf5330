#include "conform/harness.hpp"

#include <algorithm>

#include "capl/interp.hpp"
#include "sim/environment.hpp"

namespace ecucsp::conform {

std::string FrameCodec::abstract_frame(const can::CanFrame& f) const {
  const bool tx =
      std::find(tx_ids.begin(), tx_ids.end(), f.id) != tx_ids.end();
  const std::string& channel = tx ? tx_channel : rx_channel;
  auto it = ctor_of.find(f.id);
  if (it == ctor_of.end()) {
    return channel + ".Unknown" + std::to_string(f.id);
  }
  std::string ctor = it->second;
  if (mac_id && f.id == *mac_id &&
      f.byte(7) != static_cast<std::uint8_t>(mac_key ^ f.byte(0))) {
    ctor += "Bad";
  }
  return channel + "." + ctor;
}

std::vector<std::string> FrameCodec::abstract_trace(
    const std::vector<can::CanFrame>& frames) const {
  std::vector<std::string> out;
  out.reserve(frames.size());
  for (const can::CanFrame& f : frames) out.push_back(abstract_frame(f));
  return out;
}

std::optional<can::CanFrame> FrameCodec::concretize(
    const std::string& event) const {
  auto it = stimulus_frames.find(event);
  if (it == stimulus_frames.end()) return std::nullopt;
  return it->second;
}

FrameCodec ota_codec(const can::DbcDatabase& db, bool alphabet_mismatch) {
  FrameCodec codec;
  for (const auto& msg : db.messages) {
    codec.ctor_of[static_cast<can::CanId>(msg.id)] = msg.name;
  }
  if (alphabet_mismatch) {
    // Desynchronise one response name from the extracted model's alphabet:
    // the ECU's first reply now abstracts to a word the model has no edge
    // for, which the strict model oracle must reject at first sight.
    codec.ctor_of[0x101] = "SwStatusReport";
  }
  codec.tx_ids = {0x100, 0x103};  // VMG-transmitted ids ride 'send'
  codec.mac_id = 0x103;           // UpdApplyReq carries the toy MAC tag
  codec.mac_key = 0xA5;

  can::CanFrame req_sw;
  req_sw.id = 0x100;  // SwInventoryReq, all-zero payload
  codec.stimulus_frames["send.SwInventoryReq"] = req_sw;

  can::CanFrame req_app;
  req_app.id = 0x103;  // UpdApplyReq, module 1, valid tag
  req_app.set_byte(0, 1);
  req_app.set_byte(7, static_cast<std::uint8_t>(0xA5 ^ 1));
  codec.stimulus_frames["send.UpdApplyReq"] = req_app;

  can::CanFrame forged = req_app;  // same module, tag the attacker can make
  forged.set_byte(7, 0x00);
  codec.stimulus_frames["send.UpdApplyReqBad"] = forged;
  return codec;
}

// --- spans -------------------------------------------------------------------

std::string CaplSpan::to_string() const {
  return node + ":" + std::to_string(line) + ":" + std::to_string(column) +
         " (" + handler + ")";
}

std::vector<CaplSpan> SpanMap::lookup(const std::string& event) const {
  auto it = spans.find(event);
  return it == spans.end() ? std::vector<CaplSpan>{} : it->second;
}

std::string handler_label(const capl::EventHandler& h) {
  using Kind = capl::EventHandler::Kind;
  switch (h.kind) {
    case Kind::Start:
      return "on start";
    case Kind::StopMeasurement:
      return "on stopMeasurement";
    case Kind::Message:
      return "on message " +
             (h.target.empty() ? std::to_string(h.msg_id) : h.target);
    case Kind::Timer:
      return "on timer " + h.target;
    case Kind::Key:
      return "on key " + h.target;
  }
  return "handler";
}

namespace {

/// Names of message variables output() anywhere below `s`.
void collect_outputs(const capl::CaplStmt& s, std::vector<std::string>& out) {
  if (s.kind == capl::CStmtKind::ExprStmt && s.expr &&
      s.expr->kind == capl::CExprKind::Call && s.expr->text == "output" &&
      !s.expr->args.empty() &&
      s.expr->args[0]->kind == capl::CExprKind::Name) {
    out.push_back(s.expr->args[0]->text);
  }
  for (const auto& child : s.body) collect_outputs(*child, out);
  if (s.then_branch) collect_outputs(*s.then_branch, out);
  if (s.else_branch) collect_outputs(*s.else_branch, out);
  if (s.loop_body) collect_outputs(*s.loop_body, out);
}

}  // namespace

void add_program_spans(SpanMap& map, const capl::CaplProgram& prog,
                       const std::string& node_name, const FrameCodec& codec,
                       const std::string& tx_channel,
                       const std::string& rx_channel) {
  // Resolve a declared message variable to its MsgId constructor name.
  auto ctor_of_var = [&](const std::string& var) -> std::string {
    for (const auto& v : prog.variables) {
      if (v.name != var) continue;
      if (!v.msg_name.empty()) return v.msg_name;
      auto it = codec.ctor_of.find(static_cast<can::CanId>(v.msg_id));
      if (it != codec.ctor_of.end()) return it->second;
    }
    return {};
  };

  for (const auto& h : prog.handlers) {
    const CaplSpan span{node_name, handler_label(h), h.line, h.column};
    if (h.kind == capl::EventHandler::Kind::Message && !h.any_message) {
      std::string ctor = h.target;
      std::int64_t id = h.msg_id;
      if (ctor.empty() && id >= 0) {
        auto it = codec.ctor_of.find(static_cast<can::CanId>(id));
        if (it != codec.ctor_of.end()) ctor = it->second;
      }
      if (id < 0) {
        for (const auto& [cid, name] : codec.ctor_of) {
          if (name == ctor) id = cid;
        }
      }
      if (!ctor.empty()) {
        map.spans[rx_channel + "." + ctor].push_back(span);
        if (codec.mac_id && id == static_cast<std::int64_t>(*codec.mac_id)) {
          map.spans[rx_channel + "." + ctor + "Bad"].push_back(span);
        }
      }
    }
    if (h.body) {
      std::vector<std::string> outputs;
      collect_outputs(*h.body, outputs);
      for (const std::string& var : outputs) {
        const std::string ctor = ctor_of_var(var);
        if (!ctor.empty()) {
          map.spans[tx_channel + "." + ctor].push_back(span);
        }
      }
    }
  }
}

// --- execution ---------------------------------------------------------------

RunResult run_conformance_test(const capl::CaplProgram& ecu,
                               const capl::CaplProgram* vmg,
                               const can::DbcDatabase& db,
                               const FrameCodec& codec,
                               const std::vector<std::string>& planned,
                               const HarnessOptions& opt,
                               CancelToken* cancel) {
  sim::Environment env(/*bus_window_us=*/100, opt.seed);
  capl::CaplNode ecu_node("ECU", ecu, &db);
  env.attach(ecu_node);
  std::optional<capl::CaplNode> vmg_node;
  if (vmg != nullptr) {
    vmg_node.emplace("VMG", *vmg, &db);
    env.attach(*vmg_node);
  }

  // Stimuli land one settle window apart (plus seeded sub-window jitter),
  // so each response cascade drains before the next injection — planned
  // order is preserved on the bus whatever the seed. This quiescence
  // discipline is what keeps the event abstraction sound: the model's
  // pending-response states (a new request overtaking an outstanding
  // reply) are deliberately not driven, which is why observed transition
  // coverage can sit below planned coverage.
  std::vector<std::pair<std::uint64_t, can::CanFrame>> injections;
  std::uint64_t at = 0;
  for (const std::string& event : planned) {
    const auto frame = codec.concretize(event);
    if (!frame) continue;  // responses are expectations, not actions
    at += opt.settle_us + env.rng() % (opt.settle_us / 8 + 1);
    injections.emplace_back(at, *frame);
  }
  for (const auto& [when, event] : opt.injections_at) {
    const auto frame = codec.concretize(event);
    if (frame) injections.emplace_back(when, *frame);
  }
  for (const auto& [when, frame] : injections) {
    env.scheduler().schedule_at(
        when, [&env, f = frame] { env.inject(f); });
  }

  env.start();
  while (env.step(opt.deadline_us)) {
    if (cancel != nullptr) cancel->poll();
  }
  env.finish();

  RunResult out;
  out.observed = codec.abstract_trace(env.bus().trace());
  return out;
}

}  // namespace ecucsp::conform
