#include "serve/protocol.hpp"

#include <cstring>
#include <span>

#include "store/serialize.hpp"

namespace ecucsp::serve {

std::string_view to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::Passed:
      return "passed";
    case ServeStatus::Failed:
      return "FAILED";
    case ServeStatus::TimedOut:
      return "timed out";
    case ServeStatus::Cancelled:
      return "cancelled";
    case ServeStatus::StateLimit:
      return "state limit";
    case ServeStatus::Error:
      return "error";
    case ServeStatus::Overloaded:
      return "overloaded";
    case ServeStatus::ShuttingDown:
      return "shutting down";
    case ServeStatus::BadRequest:
      return "bad request";
  }
  return "?";
}

std::string CheckResponse::verdict_block() const {
  std::string out;
  out += "status: ";
  out += to_string(status);
  out += "\nvacuous: ";
  out += vacuous ? "true" : "false";
  out += "\nstates: " + std::to_string(states);
  out += "\ntransitions: " + std::to_string(transitions);
  out += "\ndigest: " + digest_hex;
  out += "\ncounterexample: " + counterexample;
  out += "\nerror: " + error;
  out += "\n";
  return out;
}

store::Digest request_digest(const CheckRequest& req) {
  store::Hasher h;
  h.str("ecucsp.serve.request");
  h.u32(kServeFormatVersion);
  h.u32(req.assertion_index);
  h.u64(req.max_states);
  h.u32(static_cast<std::uint32_t>(req.sources.size()));
  for (const std::string& s : req.sources) h.str(s);
  return h.finish();
}

namespace {

std::vector<std::uint8_t> frame(MsgType type, store::ByteWriter payload) {
  std::vector<std::uint8_t> body = payload.take();
  std::vector<std::uint8_t> out;
  out.reserve(body.size() + 6);
  out.push_back(kFrameMagic);
  out.push_back(static_cast<std::uint8_t>(type));
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFF));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void write_check_request(store::ByteWriter& w, const CheckRequest& req) {
  w.uv(req.id);
  w.uv(req.assertion_index);
  w.uv(req.max_states);
  w.uv(req.timeout_ms);
  w.uv(req.sources.size());
  for (const std::string& s : req.sources) w.str(s);
}

void write_check_response(store::ByteWriter& w, const CheckResponse& r) {
  w.uv(r.id);
  w.u8(static_cast<std::uint8_t>(r.status));
  w.u8(static_cast<std::uint8_t>((r.vacuous ? 1 : 0) |
                                 (r.from_cache ? 2 : 0) |
                                 (r.coalesced ? 4 : 0) |
                                 (r.memo_hit ? 8 : 0)));
  w.uv(r.retry_after_ms);
  w.uv(r.states);
  w.uv(r.transitions);
  w.uv(r.wall_ns);
  w.str(r.digest_hex);
  w.str(r.counterexample);
  w.str(r.error);
}

CheckRequest read_check_request(store::ByteReader& r) {
  CheckRequest req;
  req.id = r.uv();
  req.assertion_index = static_cast<std::uint32_t>(r.uv());
  req.max_states = r.uv();
  req.timeout_ms = static_cast<std::uint32_t>(r.uv());
  const std::uint64_t n = r.uv();
  if (n > 1024) throw ProtocolError("too many sources");
  req.sources.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) req.sources.push_back(r.str());
  return req;
}

CheckResponse read_check_response(store::ByteReader& r) {
  CheckResponse resp;
  resp.id = r.uv();
  resp.status = static_cast<ServeStatus>(r.u8());
  const std::uint8_t flags = r.u8();
  resp.vacuous = (flags & 1) != 0;
  resp.from_cache = (flags & 2) != 0;
  resp.coalesced = (flags & 4) != 0;
  resp.memo_hit = (flags & 8) != 0;
  resp.retry_after_ms = static_cast<std::uint32_t>(r.uv());
  resp.states = r.uv();
  resp.transitions = r.uv();
  resp.wall_ns = r.uv();
  resp.digest_hex = r.str();
  resp.counterexample = r.str();
  resp.error = r.str();
  return resp;
}

}  // namespace

std::vector<std::uint8_t> encode(const CheckRequest& req) {
  store::ByteWriter w;
  write_check_request(w, req);
  return frame(MsgType::CheckRequest, std::move(w));
}

std::vector<std::uint8_t> encode(const CheckResponse& r) {
  store::ByteWriter w;
  write_check_response(w, r);
  return frame(MsgType::CheckResponse, std::move(w));
}

std::vector<std::uint8_t> encode_stats_request() {
  return frame(MsgType::StatsRequest, store::ByteWriter{});
}

std::vector<std::uint8_t> encode_stats_response(const std::string& stats_json) {
  store::ByteWriter w;
  w.str(stats_json);
  return frame(MsgType::StatsResponse, std::move(w));
}

std::vector<std::uint8_t> encode_ping() {
  return frame(MsgType::Ping, store::ByteWriter{});
}

std::vector<std::uint8_t> encode_pong() {
  return frame(MsgType::Pong, store::ByteWriter{});
}

void FrameBuffer::feed(const void* data, std::size_t n) {
  // Compact consumed bytes before growing; keeps the buffer proportional
  // to one frame, not the whole connection history.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
  if (buf_.size() - pos_ > max_frame_ + 6) {
    throw ProtocolError("frame exceeds maximum size");
  }
}

std::optional<Msg> FrameBuffer::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail == 0) return std::nullopt;
  if (buf_[pos_] != kFrameMagic) {
    throw ProtocolError("unrecognised framing byte");
  }
  if (avail < 6) return std::nullopt;
  const std::uint8_t type = buf_[pos_ + 1];
  const std::uint32_t len = static_cast<std::uint32_t>(buf_[pos_ + 2]) |
                            (static_cast<std::uint32_t>(buf_[pos_ + 3]) << 8) |
                            (static_cast<std::uint32_t>(buf_[pos_ + 4]) << 16) |
                            (static_cast<std::uint32_t>(buf_[pos_ + 5]) << 24);
  if (len > max_frame_) throw ProtocolError("frame exceeds maximum size");
  if (avail < 6u + len) return std::nullopt;
  const std::span<const std::uint8_t> payload(buf_.data() + pos_ + 6, len);
  pos_ += 6u + len;
  Msg m;
  m.type = static_cast<MsgType>(type);
  store::ByteReader r(payload);
  try {
    switch (m.type) {
      case MsgType::CheckRequest:
        m.check = read_check_request(r);
        break;
      case MsgType::CheckResponse:
        m.response = read_check_response(r);
        break;
      case MsgType::StatsResponse:
        m.stats_json = r.str();
        break;
      case MsgType::StatsRequest:
      case MsgType::Ping:
      case MsgType::Pong:
        break;
      default:
        throw ProtocolError("unknown frame type " + std::to_string(type));
    }
  } catch (const store::SerializeError& e) {
    throw ProtocolError(e.what());
  }
  return m;
}

namespace {

// strerror_r comes in two flavours — GNU returns char* (possibly a static
// string, ignoring the buffer), POSIX returns int and fills the buffer.
// Overload resolution picks the right reading without feature-test macros.
// The overload the platform does not pick is unused.
[[maybe_unused]] const char* strerror_result(const char* returned,
                                            const char*) {
  return returned;
}
[[maybe_unused]] const char* strerror_result(int rc, const char* buf) {
  return rc == 0 ? buf : "unknown error";
}

}  // namespace

std::string errno_text(int err) {
  char buf[256] = {};
  return strerror_result(::strerror_r(err, buf, sizeof buf), buf);
}

}  // namespace ecucsp::serve
