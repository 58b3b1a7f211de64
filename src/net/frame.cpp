#include "net/frame.h"

#include <cstring>

#include "obs/obs.h"

namespace pera::net {

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello_ack";
    case FrameType::kEvidence: return "evidence";
    case FrameType::kResult: return "result";
    case FrameType::kChallenge: return "challenge";
    case FrameType::kBye: return "bye";
  }
  return "unknown";
}

bool known_frame_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kBye);
}

void append_frame(crypto::Bytes& out, FrameType type,
                  crypto::BytesView payload) {
  crypto::append_u32(out, static_cast<std::uint32_t>(payload.size() + 1));
  out.push_back(static_cast<std::uint8_t>(type));
  crypto::append(out, payload);
}

crypto::Bytes encode_frame(FrameType type, crypto::BytesView payload) {
  crypto::Bytes out;
  out.reserve(kFrameOverhead + payload.size());
  append_frame(out, type, payload);
  return out;
}

void FrameDecoder::poison(std::string why) {
  error_ = std::move(why);
  ready_.clear();
  buf_.clear();
  head_ = 0;
  PERA_OBS_COUNT("net.frame.poisoned");
}

bool FrameDecoder::feed(crypto::BytesView data) {
  if (error()) return false;
  crypto::append(buf_, data);
  for (;;) {
    const std::size_t avail = buf_.size() - head_;
    if (avail < 4) break;
    const std::uint32_t len =
        crypto::ByteReader(crypto::BytesView{buf_.data() + head_, 4}).u32();
    if (len == 0) {
      poison("zero-length frame");
      return false;
    }
    if (static_cast<std::size_t>(len) > max_payload_ + 1) {
      poison("frame exceeds max payload");
      return false;
    }
    if (avail < 4 + static_cast<std::size_t>(len)) break;  // torn: wait
    const std::uint8_t type = buf_[head_ + 4];
    if (!known_frame_type(type)) {
      poison("unknown frame type");
      return false;
    }
    Frame f;
    f.type = static_cast<FrameType>(type);
    f.payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(head_ + 5),
                     buf_.begin() + static_cast<std::ptrdiff_t>(head_ + 4 + len));
    ready_.push_back(std::move(f));
    ++frames_decoded_;
    head_ += 4 + len;
  }
  // Compact once the consumed prefix dominates, so the buffer never
  // creeps past ~one frame of stale bytes (O(1) amortised per byte).
  if (head_ > 0 && (head_ >= buf_.size() || head_ > (buf_.size() >> 1))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return true;
}

std::optional<Frame> FrameDecoder::next() {
  if (ready_.empty()) return std::nullopt;
  Frame f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

}  // namespace pera::net
