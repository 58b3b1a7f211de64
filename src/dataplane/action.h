// Match-action actions: small programs of primitive operations, in the
// style of P4 action bodies. Action parameters are bound by table entries
// at control-plane time and referenced by index from the ops.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "dataplane/packet.h"

namespace pera::dataplane {

class ParserProgram;
class RegisterFile;

/// Primitive operation kinds.
enum class OpKind : std::uint8_t {
  kSetField,       // field := operand
  kCopyField,      // dst_field := src_field
  kAddToField,     // field += operand (wraps at field width)
  kSetEgressPort,  // meta.egress_port := operand
  kDrop,           // meta.drop := true
  kSetUserMeta,    // meta.user{0,1} := operand (a selects which)
  kRegWrite,       // reg[name][index_operand] := value_operand
  kRegReadToMeta,  // meta.user0 := reg[name][index_operand]
  kNoop,
};

/// An operand is either an immediate or a reference to an action parameter.
struct Operand {
  bool is_param = false;
  std::uint64_t immediate = 0;
  std::size_t param_index = 0;

  static Operand imm(std::uint64_t v) { return {false, v, 0}; }
  static Operand param(std::size_t i) { return {true, 0, i}; }

  [[nodiscard]] std::uint64_t resolve(
      const std::vector<std::uint64_t>& params) const;
};

struct Op {
  OpKind kind = OpKind::kNoop;
  FieldRef dst{};       // kSetField / kCopyField / kAddToField
  FieldRef src{};       // kCopyField
  Operand a{};          // primary operand
  Operand b{};          // secondary operand (kRegWrite value)
  std::string reg;      // register name
  unsigned which_meta = 0;  // kSetUserMeta: 0 or 1
};

/// A named action: ordered ops, executed with entry-bound parameters.
struct ActionDef {
  std::string name;
  std::size_t param_count = 0;
  std::vector<Op> ops;

  /// Execute on a packet: resolve the field references against the packet,
  /// then run as BoundAction::execute does.
  void execute(ParsedPacket& pkt, const std::vector<std::uint64_t>& params,
               RegisterFile* regs) const;

  /// Canonical encoding for program attestation.
  [[nodiscard]] crypto::Bytes encode() const;
};

/// An action with every field reference resolved to a FieldSlot: what the
/// pipeline runs per packet. Holds `def` by address.
class BoundAction {
 public:
  /// Resolve against `parser`'s schema (program build time); execute then
  /// takes packets that parser produced. Throws like resolve_field.
  BoundAction(const ActionDef& def, const ParserProgram& parser);
  /// Resolve against the headers `pkt` carries.
  BoundAction(const ActionDef& def, const ParsedPacket& pkt);

  [[nodiscard]] const ActionDef& def() const { return *def_; }

  /// Parameters an entry must bind: the declared count, or more when an
  /// op reads a parameter past it.
  [[nodiscard]] std::size_t min_params() const { return min_params_; }

  /// Execute on a packet. `regs` may be null when the action uses no
  /// register ops. Throws std::runtime_error on parameter/register misuse
  /// and std::out_of_range on a field of an absent header.
  void execute(ParsedPacket& pkt, const std::vector<std::uint64_t>& params,
               RegisterFile* regs) const;

 private:
  BoundAction(const ActionDef& def,
              const std::function<FieldSlot(const FieldRef&)>& resolve);

  const ActionDef* def_;
  std::vector<FieldSlot> dst_;  // parallel to def_->ops
  std::vector<FieldSlot> src_;
  std::size_t min_params_ = 0;
};

/// A program's actions by name, resolved; std::less<> allows lookups by
/// string_view.
using ActionTable = std::map<std::string, BoundAction, std::less<>>;

/// Common actions.
namespace stdaction {
/// forward(port): set egress port from param 0.
[[nodiscard]] ActionDef forward();
/// drop packet.
[[nodiscard]] ActionDef drop();
/// noop.
[[nodiscard]] ActionDef noop();
/// set_field(hdr.field = param0) — builds a one-op setter.
[[nodiscard]] ActionDef set_field(const std::string& field_ref);
}  // namespace stdaction

}  // namespace pera::dataplane
