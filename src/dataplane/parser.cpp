#include "dataplane/parser.h"

#include <stdexcept>

namespace pera::dataplane {

void ParserProgram::add_state(ParserState state) {
  states_[state.name] = std::move(state);
}

ParsedPacket ParserProgram::parse(const RawPacket& raw) const {
  static const std::string kStart = "start";
  ParsedPacket pkt;
  pkt.meta.ingress_port = raw.port;
  pkt.headers().reserve(schema_.size());

  const std::string* state_name = &kStart;
  std::size_t offset = 0;
  std::size_t steps = 0;

  while (*state_name != "accept") {
    if (++steps > 64) {
      throw std::runtime_error("parser: too many states (loop in parse graph?)");
    }
    const auto sit = states_.find(*state_name);
    if (sit == states_.end()) {
      throw std::runtime_error("parser: unknown state '" + *state_name + "'");
    }
    const ParserState& st = sit->second;

    const HeaderInstance* extracted = nullptr;
    if (!st.header.empty()) {
      const auto hit = schema_.find(st.header);
      if (hit == schema_.end()) {
        throw std::runtime_error("parser: unknown header '" + st.header + "'");
      }
      const HeaderSpec& spec = hit->second;
      const BytesView rest{raw.data.data() + offset, raw.data.size() - offset};
      HeaderInstance& h = pkt.add_header(spec);
      unpack_header(spec, rest, h.values.data());
      offset += spec.byte_width();
      extracted = &h;
    }

    if (st.select) {
      if (extracted == nullptr) {
        throw std::runtime_error("parser: select in state '" + st.name +
                                 "' without an extracted header");
      }
      const std::uint64_t v = extracted->get(st.select->field);
      const auto cit = st.select->cases.find(v);
      state_name = cit == st.select->cases.end() ? &st.select->default_next
                                                 : &cit->second;
    } else {
      state_name = &st.next;
    }
  }

  pkt.payload.assign(raw.data.begin() + static_cast<std::ptrdiff_t>(offset),
                     raw.data.end());
  return pkt;
}

crypto::Bytes ParserProgram::encode() const {
  crypto::Bytes out;
  crypto::append_u32(out, static_cast<std::uint32_t>(schema_.size()));
  for (const auto& [name, spec] : schema_) {
    crypto::append_str(out, name);
    crypto::append_u32(out, static_cast<std::uint32_t>(spec.fields.size()));
    for (const auto& f : spec.fields) {
      crypto::append_str(out, f.name);
      crypto::append_u32(out, f.bits);
    }
  }
  crypto::append_u32(out, static_cast<std::uint32_t>(states_.size()));
  for (const auto& [name, st] : states_) {
    crypto::append_str(out, name);
    crypto::append_str(out, st.header);
    if (st.select) {
      out.push_back(1);
      crypto::append_str(out, st.select->field);
      crypto::append_u32(out, static_cast<std::uint32_t>(st.select->cases.size()));
      for (const auto& [v, next] : st.select->cases) {
        crypto::append_u64(out, v);
        crypto::append_str(out, next);
      }
      crypto::append_str(out, st.select->default_next);
    } else {
      out.push_back(0);
      crypto::append_str(out, st.next);
    }
  }
  return out;
}

}  // namespace pera::dataplane
