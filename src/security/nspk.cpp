#include "security/nspk.hpp"

namespace ecucsp::security {

std::unique_ptr<NspkSystem> build_nspk(bool lowe_fix) {
  auto sys = std::make_unique<NspkSystem>();
  Context& ctx = sys->ctx;
  TermAlgebra& T = sys->terms;

  const Value a = T.atom("a");
  const Value b = T.atom("b");
  const Value i = T.atom("i");
  const Value na = T.atom("na");
  const Value nb = T.atom("nb");
  const Value ni = T.atom("ni");
  const std::vector<Value> agents{a, b, i};
  const std::vector<Value> nonces{na, nb, ni};

  // --- message space ---------------------------------------------------------
  std::vector<Value> payloads;      // everything that can sit under an aenc
  std::vector<Value> inner_pairs;   // NSL's <Nb, B> sub-terms
  for (const Value& n : nonces) {
    for (const Value& ag : agents) {
      payloads.push_back(T.pair(n, ag));  // Msg1 payloads <N, A>
    }
  }
  if (lowe_fix) {
    for (const Value& n1 : nonces) {
      for (const Value& n2 : nonces) {
        for (const Value& ag : agents) {
          inner_pairs.push_back(T.pair(n2, ag));
          payloads.push_back(T.pair(n1, T.pair(n2, ag)));  // <Na, <Nb, B>>
        }
      }
    }
  } else {
    for (const Value& n1 : nonces) {
      for (const Value& n2 : nonces) {
        payloads.push_back(T.pair(n1, n2));  // <Na, Nb>
      }
    }
  }
  for (const Value& n : nonces) payloads.push_back(n);  // Msg3 payloads

  std::vector<Value> messages;
  for (const Value& ag : agents) {
    for (const Value& p : payloads) {
      messages.push_back(T.aenc(T.pk(ag), p));
    }
  }

  std::vector<Value> universe = messages;
  universe.insert(universe.end(), payloads.begin(), payloads.end());
  universe.insert(universe.end(), inner_pairs.begin(), inner_pairs.end());
  universe.insert(universe.end(), nonces.begin(), nonces.end());
  universe.insert(universe.end(), agents.begin(), agents.end());
  for (const Value& ag : agents) universe.push_back(T.pk(ag));
  universe.push_back(T.sk(i));

  // --- channels ----------------------------------------------------------------
  const ChannelId snd = ctx.channel("snd", {agents, agents, messages});
  const ChannelId rcv = ctx.channel("rcv", {agents, agents, messages});
  const ChannelId running = ctx.channel("running", {agents, agents});
  const ChannelId commit = ctx.channel("commit", {agents, agents});

  // --- initiator A (one session, peer chosen by the environment) -------------
  const auto msg2_for = [&](const Value& self, const Value& nonce,
                            const Value& peer_nonce, const Value& peer) {
    return lowe_fix ? T.aenc(T.pk(self), T.pair(nonce, T.pair(peer_nonce, peer)))
                    : T.aenc(T.pk(self), T.pair(nonce, peer_nonce));
  };

  std::vector<ProcessRef> init_branches;
  for (const Value& peer : {b, i}) {
    // Msg1 out, then accept any well-formed Msg2, then Msg3 out.
    std::vector<ProcessRef> replies;
    for (const Value& x : nonces) {
      const Value m2 = msg2_for(a, na, x, peer);
      const EventId recv_m2 = ctx.event(rcv, {peer, a, m2});
      const EventId send_m3 =
          ctx.event(snd, {a, peer, T.aenc(T.pk(peer), x)});
      replies.push_back(
          ctx.prefix(recv_m2, ctx.prefix(send_m3, ctx.skip())));
    }
    const EventId send_m1 =
        ctx.event(snd, {a, peer, T.aenc(T.pk(peer), T.pair(na, a))});
    const EventId run_ev = ctx.event(running, {a, peer});
    init_branches.push_back(ctx.prefix(
        run_ev, ctx.prefix(send_m1, ctx.ext_choice(replies))));
  }
  const ProcessRef initiator = ctx.ext_choice(init_branches);

  // --- responder B (one session, any claimed initiator) -----------------------
  std::vector<ProcessRef> resp_branches;
  for (const Value& claimed : agents) {
    for (const Value& n : nonces) {
      const EventId recv_m1 = ctx.event(
          rcv, {claimed, b, T.aenc(T.pk(b), T.pair(n, claimed))});
      const EventId send_m2 =
          ctx.event(snd, {b, claimed, msg2_for(claimed, n, nb, b)});
      const EventId recv_m3 =
          ctx.event(rcv, {claimed, b, T.aenc(T.pk(b), nb)});
      const EventId commit_ev = ctx.event(commit, {b, claimed});
      resp_branches.push_back(ctx.prefix(
          recv_m1,
          ctx.prefix(send_m2,
                     ctx.prefix(recv_m3,
                                ctx.prefix(commit_ev, ctx.skip())))));
    }
  }
  const ProcessRef responder = ctx.ext_choice(resp_branches);

  // --- intruder -----------------------------------------------------------------
  IntruderConfig& cfg = sys->intruder;
  cfg.universe = universe;
  cfg.messages = messages;
  cfg.initial_knowledge = {a,       b,       i,        ni,
                           T.pk(a), T.pk(b), T.pk(i), T.sk(i)};
  cfg.hear_channel = snd;
  cfg.say_channel = rcv;
  cfg.agents = agents;
  cfg.name = "NSPK_INTRUDER";
  const ProcessRef intruder = build_intruder(T, cfg);

  const EventSet network =
      ctx.events_of(snd).set_union(ctx.events_of(rcv));
  sys->system =
      ctx.par(ctx.interleave(initiator, responder), network, intruder);
  sys->running_ab = ctx.event(running, {a, b});
  sys->commit_ba = ctx.event(commit, {b, a});
  return sys;
}

}  // namespace ecucsp::security
