#include "dataplane/parser.h"

#include <atomic>
#include <iterator>
#include <stdexcept>

namespace pera::dataplane {

ParserProgram::Id::Id() {
  static std::atomic<std::uint64_t> next{1};
  value = next.fetch_add(1, std::memory_order_relaxed);
}

ParserProgram::ParserProgram(std::map<std::string, HeaderSpec> schema)
    : schema_(std::move(schema)) {
  formats_.reserve(schema_.size());
  for (const auto& [name, spec] : schema_) {
    formats_.emplace_back(spec);
    max_values_ += spec.fields.size();
  }
  resolve_graph();
}

void ParserProgram::add_state(ParserState state) {
  states_[state.name] = std::move(state);
  resolve_graph();
}

FieldSlot ParserProgram::resolve(const FieldRef& ref) const {
  const auto it = schema_.find(ref.header);
  if (it == schema_.end()) return resolve_field(ref, nullptr);
  const auto index = static_cast<std::size_t>(
      std::distance(schema_.begin(), it));
  return resolve_field(ref, &formats_[index].spec());
}

void ParserProgram::resolve_graph() {
  // Number every state name: "start" first, then the declared states, then
  // targets nobody declared (they fail when reached).
  std::map<std::string, int> index{{"start", 0}};
  std::vector<std::string> names{"start"};
  const auto number = [&](const std::string& name) {
    if (name == "accept") return kAccept;
    const auto [it, fresh] =
        index.emplace(name, static_cast<int>(names.size()));
    if (fresh) names.push_back(name);
    return it->second;
  };
  for (const auto& [name, st] : states_) (void)number(name);

  std::vector<Node> nodes;
  for (std::size_t i = 0; i < names.size(); ++i) {
    Node node;
    const auto sit = states_.find(names[i]);
    if (sit == states_.end()) {
      node.error = "parser: unknown state '" + names[i] + "'";
      nodes.push_back(std::move(node));
      continue;
    }
    const ParserState& st = sit->second;
    const HeaderSpec* spec = nullptr;
    if (!st.header.empty()) {
      const auto hit = schema_.find(st.header);
      if (hit == schema_.end()) {
        node.error = "parser: unknown header '" + st.header + "'";
      } else {
        node.format = static_cast<int>(std::distance(schema_.begin(), hit));
        spec = &hit->second;
      }
    }
    if (st.select) {
      if (st.header.empty()) {
        node.error = "parser: select in state '" + st.name +
                     "' without an extracted header";
      } else if (spec != nullptr) {
        node.select_field = spec->field_index(st.select->field);
        if (node.select_field < 0) {
          node.error = "parser: no field '" + st.select->field +
                       "' in header " + spec->name;
        }
      }
      for (const auto& [value, next] : st.select->cases) {
        node.cases.emplace_back(value, number(next));
      }
      node.next = number(st.select->default_next);
    } else {
      node.next = number(st.next);
    }
    nodes.push_back(std::move(node));
  }
  nodes_ = std::move(nodes);
}

ParsedPacket ParserProgram::parse(const RawPacket& raw) const {
  ParsedPacket pkt;
  parse(raw, pkt);
  return pkt;
}

void ParserProgram::parse(const RawPacket& raw, ParsedPacket& pkt) const {
  pkt.meta = Metadata{};
  pkt.meta.ingress_port = raw.port;
  pkt.parser_ = this;
  pkt.headers_.clear();
  pkt.values_.clear();
  pkt.headers_.reserve(formats_.size());
  pkt.values_.reserve(max_values_);
  if (nodes_.empty()) throw std::runtime_error("parser: moved-from program");

  std::size_t offset = 0;
  std::size_t steps = 0;
  for (int s = 0; s != kAccept;) {
    if (++steps > 64) {
      throw std::runtime_error("parser: too many states (loop in parse graph?)");
    }
    const Node& node = nodes_[static_cast<std::size_t>(s)];
    if (!node.error.empty()) throw std::runtime_error(node.error);

    const HeaderInstance* extracted = nullptr;
    if (node.format >= 0) {
      const HeaderFormat& format =
          formats_[static_cast<std::size_t>(node.format)];
      if (raw.data.size() - offset < format.byte_width()) {
        throw std::invalid_argument(
            "unpack_header: buffer shorter than header " + format.spec().name);
      }
      HeaderInstance& h = pkt.add_instance(format.spec(), &format);
      format.unpack(raw.data.data() + offset, h.values.data());
      offset += format.byte_width();
      extracted = &h;
    }

    s = node.next;
    if (node.select_field >= 0) {
      const std::uint64_t v =
          extracted->values[static_cast<std::size_t>(node.select_field)];
      for (const auto& [value, target] : node.cases) {
        if (value == v) {
          s = target;
          break;
        }
      }
    }
  }

  pkt.payload.assign(raw.data.begin() + static_cast<std::ptrdiff_t>(offset),
                     raw.data.end());
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
