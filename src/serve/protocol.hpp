// Wire protocol of the verification service.
//
// One framing: every message is [0xEC][type:u8][len:u32 LE][payload], where
// payload is the ByteWriter encoding (varints, length-framed strings) of the
// message struct. A stream whose next message starts with any other byte is
// a protocol error.
//
// The frame length is bounded (ServerOptions::max_frame); an oversized or
// malformed frame is a protocol error and closes the connection — the
// daemon never allocates attacker-controlled amounts of memory.
//
// A CheckRequest carries CSPm source text plus one assertion index — the
// same inputs `ecucsp_check --jobs` turns into a CheckTask — and the
// response carries the complete verdict: status, counterexample text,
// vacuity, exploration stats and the request digest. Everything
// deterministic is isolated in CheckResponse::verdict_block(), the
// byte-identity surface that coalesced, memoised, cache-served and
// freshly-explored answers to the same request must agree on.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "store/digest.hpp"

namespace ecucsp::serve {

/// Bump on any wire-format change. Participates in request digests, so
/// coalescing and response memoisation never cross protocol versions.
inline constexpr std::uint32_t kServeFormatVersion = 1;

inline constexpr std::uint8_t kFrameMagic = 0xEC;

enum class MsgType : std::uint8_t {
  CheckRequest = 1,
  CheckResponse = 2,
  StatsRequest = 3,
  StatsResponse = 4,
  Ping = 5,
  Pong = 6,
};

/// TaskStatus plus the service-level outcomes a client must distinguish.
enum class ServeStatus : std::uint8_t {
  Passed = 0,
  Failed = 1,        // check completed, property does not hold
  TimedOut = 2,      // the request's own deadline fired mid-check
  Cancelled = 3,     // daemon drained / shut down under the check
  StateLimit = 4,    // max_states budget exceeded
  Error = 5,         // model construction or evaluation error
  Overloaded = 6,    // admission control shed the request; retry later
  ShuttingDown = 7,  // daemon is draining and admits nothing new
  BadRequest = 8,    // malformed request (no sources, ...)
};

std::string_view to_string(ServeStatus s);

/// True for the service-level rejections that carry no verdict.
inline bool is_rejection(ServeStatus s) {
  return s == ServeStatus::Overloaded || s == ServeStatus::ShuttingDown ||
         s == ServeStatus::BadRequest;
}

struct CheckRequest {
  /// Client-chosen correlation id, echoed verbatim in the response.
  std::uint64_t id = 0;
  /// Which 'assert' of the loaded scripts to run (0-based).
  std::uint32_t assertion_index = 0;
  std::uint64_t max_states = 1ull << 22;
  /// Per-request wall-clock deadline, honoured via the engine CancelToken;
  /// 0 means no deadline (the daemon may still apply its own default).
  std::uint32_t timeout_ms = 0;
  /// CSPm scripts, loaded in order into one fresh Context on a worker.
  std::vector<std::string> sources;
};

struct CheckResponse {
  std::uint64_t id = 0;
  ServeStatus status = ServeStatus::Error;
  /// CheckResult::vacuous — the pass never touched a constrained event.
  bool vacuous = false;
  /// The verdict came out of the verification store (engine-level cache)
  /// or the serve-level response memo rather than a fresh exploration.
  bool from_cache = false;
  /// This verdict was shared by a single-flight: at least two concurrent
  /// requests were answered by one engine sweep (set on every sharer).
  bool coalesced = false;
  /// Served from the response memo without touching the engine at all.
  bool memo_hit = false;
  /// Overloaded only: suggested client back-off.
  std::uint32_t retry_after_ms = 0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  /// Queue + engine time as observed by the service for this request.
  std::uint64_t wall_ns = 0;
  /// Hex request digest (the coalescing / memo key); empty on BadRequest.
  std::string digest_hex;
  /// Rendered counterexample ("<description>: <trace...>"), empty on pass.
  std::string counterexample;
  /// Diagnostic for Error / StateLimit / rejection statuses.
  std::string error;

  /// Canonical text of every deterministic field — excludes id, wall_ns
  /// and the transport flags (from_cache/coalesced/memo_hit), which vary
  /// by serving path. Two requests with equal digests must produce
  /// byte-identical blocks whatever path served them, cold or warm.
  std::string verdict_block() const;
};

/// One decoded message.
struct Msg {
  MsgType type = MsgType::Ping;
  CheckRequest check;
  CheckResponse response;
  /// StatsResponse: the stats object, verbatim JSON.
  std::string stats_json;
};

class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("protocol: " + what) {}
};

std::vector<std::uint8_t> encode(const CheckRequest& req);
std::vector<std::uint8_t> encode(const CheckResponse& resp);
std::vector<std::uint8_t> encode_stats_request();
std::vector<std::uint8_t> encode_stats_response(const std::string& stats_json);
std::vector<std::uint8_t> encode_ping();
std::vector<std::uint8_t> encode_pong();

/// Frozen signatures for the benchmark under perfbench/, which still passes
/// the retired framing flag. The flag is ignored; the next change to the
/// benchmark moves its calls to the overloads above and drops these two.
inline std::vector<std::uint8_t> encode(const CheckRequest& req,
                                        bool /*json*/) {
  return encode(req);
}
inline std::vector<std::uint8_t> encode(const CheckResponse& resp,
                                        bool /*json*/) {
  return encode(resp);
}

/// Incremental frame reassembly over a byte stream: feed() whatever the
/// socket produced, then drain next() until it returns nullopt (more bytes
/// needed). Malformed input throws ProtocolError — the caller closes the
/// connection. One FrameBuffer per connection.
class FrameBuffer {
 public:
  explicit FrameBuffer(std::size_t max_frame = 64u << 20)
      : max_frame_(max_frame) {}

  void feed(const void* data, std::size_t n);
  std::optional<Msg> next();

  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted opportunistically
  std::size_t max_frame_;
};

/// The coalescing / memo key: a digest over the request's *semantic* inputs
/// (sources, assertion index, max_states, protocol version). The deadline
/// is deliberately excluded — requests differing only in patience share one
/// engine sweep. Textually different but structurally identical models get
/// different request digests and coalesce one layer down instead, in the
/// verification store, which keys on PR 2 structural term digests.
store::Digest request_digest(const CheckRequest& req);

/// Thread-safe strerror: the server and client format errno from worker
/// and poll-loop threads, where std::strerror's shared static buffer is a
/// data race (clang-tidy concurrency-mt-unsafe).
std::string errno_text(int err);

}  // namespace ecucsp::serve
