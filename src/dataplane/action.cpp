#include "dataplane/action.h"

#include <algorithm>
#include <stdexcept>

#include "dataplane/parser.h"
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
  BoundAction(*this, pkt).execute(pkt, params, regs);
}

BoundAction::BoundAction(const ActionDef& def, const ParserProgram& parser)
    : BoundAction(def, [&parser](const FieldRef& ref) {
        return parser.resolve(ref);
      }) {}

BoundAction::BoundAction(const ActionDef& def, const ParsedPacket& pkt)
    : BoundAction(def, [&pkt](const FieldRef& ref) {
        const HeaderInstance* h = pkt.find(ref.header);
        return resolve_field(ref, h != nullptr ? h->spec : nullptr);
      }) {}

BoundAction::BoundAction(
    const ActionDef& def,
    const std::function<FieldSlot(const FieldRef&)>& resolve)
    : def_(&def), min_params_(def.param_count) {
  dst_.reserve(def.ops.size());
  src_.reserve(def.ops.size());
  const auto need = [this](const Operand& o) {
    if (o.is_param) min_params_ = std::max(min_params_, o.param_index + 1);
  };
  for (const Op& op : def.ops) {
    const bool writes = op.kind == OpKind::kSetField ||
                        op.kind == OpKind::kCopyField ||
                        op.kind == OpKind::kAddToField;
    dst_.push_back(writes ? resolve(op.dst) : FieldSlot{});
    src_.push_back(op.kind == OpKind::kCopyField ? resolve(op.src)
                                                 : FieldSlot{});
    need(op.a);
    if (op.kind == OpKind::kRegWrite) need(op.b);
  }
}

void BoundAction::execute(ParsedPacket& pkt,
                          const std::vector<std::uint64_t>& params,
                          RegisterFile* regs) const {
  const ActionDef& def = *def_;
  if (params.size() < def.param_count) {
    throw std::runtime_error("action '" + def.name + "' expects " +
                             std::to_string(def.param_count) + " params, got " +
                             std::to_string(params.size()));
  }
  const auto absent = [](const FieldRef& ref) {
    return std::out_of_range("header '" + ref.header + "' not present");
  };
  const auto need_regs = [&] {
    if (regs == nullptr) {
      throw std::runtime_error("action '" + def.name +
                               "' uses registers but none provided");
    }
  };
  for (std::size_t i = 0; i < def.ops.size(); ++i) {
    const Op& op = def.ops[i];
    switch (op.kind) {
      case OpKind::kSetField:
        if (!pkt.write(dst_[i], op.a.resolve(params))) throw absent(op.dst);
        break;
      case OpKind::kCopyField: {
        const auto v = pkt.read(src_[i]);
        if (!v) throw absent(op.src);
        if (!pkt.write(dst_[i], *v)) throw absent(op.dst);
        break;
      }
      case OpKind::kAddToField: {
        const auto v = pkt.read(dst_[i]);
        if (!v) throw absent(op.dst);
        (void)pkt.write(dst_[i], *v + op.a.resolve(params));
        break;
      }
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
      case OpKind::kRegWrite:
        need_regs();
        regs->write(op.reg, static_cast<std::size_t>(op.a.resolve(params)),
                    op.b.resolve(params));
        break;
      case OpKind::kRegReadToMeta:
        need_regs();
        pkt.meta.user0 =
            regs->read(op.reg, static_cast<std::size_t>(op.a.resolve(params)));
        break;
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
