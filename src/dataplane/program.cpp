#include "dataplane/program.h"

#include <stdexcept>

namespace pera::dataplane {

void DataplaneProgram::add_action(ActionDef action) {
  ++schema_revision_;  // first: actions_ changes even if binding throws
  const std::string name = action.name;
  ActionDef& def = actions_[name];
  def = std::move(action);
  bound_actions_.insert_or_assign(name, BoundAction(def, parser_));
  for (auto& t : tables_) t->bind_actions(&bound_actions_);
}

const ActionDef* DataplaneProgram::action(const std::string& name) const {
  const auto it = actions_.find(name);
  return it == actions_.end() ? nullptr : &it->second;
}

Table& DataplaneProgram::add_table(std::string name,
                                   std::vector<KeySpec> keys) {
  auto table = std::make_unique<Table>(std::move(name), std::move(keys));
  table->bind_keys(parser_);
  table->bind_actions(&bound_actions_);
  tables_.push_back(std::move(table));
  ++schema_revision_;
  return *tables_.back();
}

Table* DataplaneProgram::table(const std::string& name) {
  for (auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

const Table* DataplaneProgram::table(const std::string& name) const {
  for (const auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

void DataplaneProgram::check_entry(const std::string& table,
                                   const TableEntry& entry) const {
  const Table* t = this->table(table);
  if (t == nullptr) {
    throw std::invalid_argument("no table '" + table + "' in " + name_);
  }
  if (entry.keys.size() != t->keys().size()) {
    throw std::invalid_argument(
        "table '" + table + "': entry has " +
        std::to_string(entry.keys.size()) + " keys, table expects " +
        std::to_string(t->keys().size()));
  }
  const auto it = bound_actions_.find(entry.action);
  if (it == bound_actions_.end()) {
    throw std::invalid_argument("table '" + table + "': no action '" +
                                entry.action + "' in " + name_);
  }
  if (entry.action_params.size() < it->second.min_params()) {
    throw std::invalid_argument(
        "table '" + table + "': action '" + entry.action + "' reads " +
        std::to_string(it->second.min_params()) + " params, entry binds " +
        std::to_string(entry.action_params.size()));
  }
}

void DataplaneProgram::declare_register(const std::string& name,
                                        std::size_t size, bool packet_writable,
                                        StateGuard guard) {
  register_decls_.push_back(RegisterDecl{name, size, packet_writable, guard});
  ++schema_revision_;
}

std::vector<StateObject> DataplaneProgram::state_objects() const {
  std::vector<StateObject> out;
  out.reserve(tables_.size() + register_decls_.size());
  for (const auto& t : tables_) {
    StateObject obj;
    obj.kind = StateObject::Kind::kTable;
    obj.name = t->name();
    obj.capacity = t->capacity();
    obj.packet_writable = t->packet_writable();
    obj.guarded = t->capacity() > 0 && t->eviction() != EvictionPolicy::kNone;
    out.push_back(std::move(obj));
  }
  for (const auto& d : register_decls_) {
    StateObject obj;
    obj.kind = StateObject::Kind::kRegister;
    obj.name = d.name;
    obj.capacity = d.size;
    obj.packet_writable = d.packet_writable;
    obj.guarded = d.guard != StateGuard::kNone;
    out.push_back(std::move(obj));
  }
  return out;
}

crypto::Digest DataplaneProgram::program_digest() const {
  crypto::Sha256 h;
  h.update("pera.dataplane.program.v1");
  h.update(name_);
  h.update(version_);
  const crypto::Bytes parser_enc = parser_.encode();
  h.update(crypto::BytesView{parser_enc.data(), parser_enc.size()});
  for (const auto& [name, action] : actions_) {
    const crypto::Bytes enc = action.encode();
    h.update(crypto::BytesView{enc.data(), enc.size()});
  }
  for (const auto& t : tables_) {
    const crypto::Bytes enc = t->encode_schema();
    h.update(crypto::BytesView{enc.data(), enc.size()});
  }
  for (const auto& d : register_decls_) {
    h.update(d.name);
    crypto::Bytes buf;
    crypto::append_u64(buf, d.size);
    buf.push_back(d.packet_writable ? 1 : 0);
    buf.push_back(static_cast<std::uint8_t>(d.guard));
    h.update(crypto::BytesView{buf.data(), buf.size()});
  }
  return h.finish();
}

crypto::Digest DataplaneProgram::tables_digest() const {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(tables_.size());
  for (const auto& t : tables_) leaves.push_back(t->content_digest());
  return crypto::MerkleTree(std::move(leaves)).root();
}

crypto::Digest DataplaneProgram::tables_digest_full() const {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(tables_.size());
  for (const auto& t : tables_) leaves.push_back(t->content_digest_full());
  return crypto::MerkleTree(std::move(leaves)).root();
}

std::uint64_t DataplaneProgram::tables_revision() const {
  std::uint64_t sum = 0;
  for (const auto& t : tables_) sum += t->revision();
  return sum;
}

std::uint64_t DataplaneProgram::schema_revision() const {
  std::uint64_t sum = schema_revision_;
  for (const auto& t : tables_) sum += t->schema_revision();
  return sum;
}

PisaSwitch::PisaSwitch(std::shared_ptr<DataplaneProgram> program) {
  load_program(std::move(program));
}

void PisaSwitch::load_program(std::shared_ptr<DataplaneProgram> program) {
  if (!program) throw std::invalid_argument("load_program: null program");
  program_ = std::move(program);
  ++loads_;
  regs_ = RegisterFile{};
  for (const auto& d : program_->register_decls()) {
    regs_.declare(d.name, d.size);
  }
}

ParsedPacket PisaSwitch::parse(const RawPacket& raw) {
  ParsedPacket pkt;
  parse(raw, pkt);
  return pkt;
}

void PisaSwitch::parse(const RawPacket& raw, ParsedPacket& into) {
  ++stats_.packets_in;
  try {
    program_->parser().parse(raw, into);
    into.meta.packet_id = next_packet_id_++;
  } catch (const std::exception&) {
    ++stats_.parse_errors;
    throw;
  }
}

void PisaSwitch::run_pipeline(ParsedPacket& pkt) {
  // Bound actions read the slots of this program's parser; a packet parsed
  // elsewhere has its names resolved per action run instead.
  const bool own_parser = pkt.parser() == &program_->parser();
  for (const auto& t : program_->tables()) {
    if (pkt.meta.drop) return;
    ++stats_.table_lookups;
    const Table::Selection sel = t->select(pkt);
    if (sel.entry != nullptr) ++stats_.table_hits;
    if (sel.action == nullptr) continue;
    if (sel.bound == nullptr) {
      throw std::runtime_error("table '" + t->name() +
                               "' references unknown action '" + *sel.action +
                               "'");
    }
    if (own_parser) {
      sel.bound->execute(pkt, *sel.params, &regs_);
    } else {
      sel.bound->def().execute(pkt, *sel.params, &regs_);
    }
  }
}

std::optional<RawPacket> PisaSwitch::deparse(const ParsedPacket& pkt) {
  if (pkt.meta.drop) {
    ++stats_.packets_dropped;
    return std::nullopt;
  }
  ++stats_.packets_out;
  RawPacket out;
  out.port = pkt.meta.egress_port;
  out.data = pkt.deparse();
  return out;
}

std::optional<RawPacket> PisaSwitch::process(const RawPacket& raw) {
  ParsedPacket pkt;
  try {
    pkt = parse(raw);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  run_pipeline(pkt);
  return deparse(pkt);
}

}  // namespace pera::dataplane
