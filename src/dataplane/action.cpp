#include "dataplane/action.h"

#include <stdexcept>

#include "dataplane/registers.h"

namespace pera::dataplane {

std::uint64_t Operand::resolve(const std::vector<std::uint64_t>& params) const {
  if (!is_param) return immediate;
  if (param_index >= params.size()) {
    throw std::runtime_error("action operand references missing parameter " +
                             std::to_string(param_index));
  }
  return params[param_index];
}

void ActionDef::execute(ParsedPacket& pkt,
                        const std::vector<std::uint64_t>& params,
                        RegisterFile* regs) const {
  if (params.size() < param_count) {
    throw std::runtime_error("action '" + name + "' expects " +
                             std::to_string(param_count) + " params, got " +
                             std::to_string(params.size()));
  }
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kSetField:
        pkt.set(op.dst, op.a.resolve(params));
        break;
      case OpKind::kCopyField:
        pkt.set(op.dst, pkt.get(op.src));
        break;
      case OpKind::kAddToField:
        pkt.set(op.dst, pkt.get(op.dst) + op.a.resolve(params));
        break;
      case OpKind::kSetEgressPort:
        pkt.meta.egress_port =
            static_cast<std::uint32_t>(op.a.resolve(params));
        break;
      case OpKind::kDrop:
        pkt.meta.drop = true;
        break;
      case OpKind::kSetUserMeta:
        if (op.which_meta == 0) {
          pkt.meta.user0 = op.a.resolve(params);
        } else {
          pkt.meta.user1 = op.a.resolve(params);
        }
        break;
      case OpKind::kRegWrite: {
        if (regs == nullptr) {
          throw std::runtime_error("action '" + name +
                                   "' uses registers but none provided");
        }
        regs->write(op.reg, static_cast<std::size_t>(op.a.resolve(params)),
                    op.b.resolve(params));
        break;
      }
      case OpKind::kRegReadToMeta: {
        if (regs == nullptr) {
          throw std::runtime_error("action '" + name +
                                   "' uses registers but none provided");
        }
        pkt.meta.user0 =
            regs->read(op.reg, static_cast<std::size_t>(op.a.resolve(params)));
        break;
      }
      case OpKind::kNoop:
        break;
    }
  }
}

crypto::Bytes ActionDef::encode() const {
  crypto::Bytes out;
  const auto put_operand = [&out](const Operand& o) {
    out.push_back(o.is_param ? 1 : 0);
    crypto::append_u64(out, o.is_param ? o.param_index : o.immediate);
  };
  crypto::append_str(out, name);
  crypto::append_u32(out, static_cast<std::uint32_t>(param_count));
  crypto::append_u32(out, static_cast<std::uint32_t>(ops.size()));
  for (const Op& op : ops) {
    out.push_back(static_cast<std::uint8_t>(op.kind));
    crypto::append_str(out, op.dst.header);
    crypto::append_str(out, op.dst.field);
    crypto::append_str(out, op.src.header);
    crypto::append_str(out, op.src.field);
    put_operand(op.a);
    put_operand(op.b);
    crypto::append_str(out, op.reg);
    crypto::append_u32(out, op.which_meta);
  }
  return out;
}

namespace stdaction {

ActionDef forward() {
  ActionDef a;
  a.name = "forward";
  a.param_count = 1;
  Op op;
  op.kind = OpKind::kSetEgressPort;
  op.a = Operand::param(0);
  a.ops.push_back(op);
  return a;
}

ActionDef drop() {
  ActionDef a;
  a.name = "drop";
  Op op;
  op.kind = OpKind::kDrop;
  a.ops.push_back(op);
  return a;
}

ActionDef noop() {
  ActionDef a;
  a.name = "noop";
  return a;
}

ActionDef set_field(const std::string& field_ref) {
  ActionDef a;
  a.name = "set_" + field_ref;
  a.param_count = 1;
  Op op;
  op.kind = OpKind::kSetField;
  op.dst = parse_field_ref(field_ref);
  op.a = Operand::param(0);
  a.ops.push_back(op);
  return a;
}

}  // namespace stdaction

}  // namespace pera::dataplane
