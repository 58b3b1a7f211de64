#include "dataplane/table.h"

#include <stdexcept>

#include "dataplane/parser.h"
#include "obs/obs.h"

namespace pera::dataplane {

std::optional<std::uint64_t> read_key_field(const ParsedPacket& pkt,
                                            const FieldRef& ref) {
  const HeaderInstance* h = pkt.find(ref.header);
  return pkt.read(resolve_field(ref, h != nullptr ? h->spec : nullptr));
}

Table::Table(std::string name, std::vector<KeySpec> keys)
    : name_(std::move(name)), keys_(std::move(keys)) {
  all_exact_ = !keys_.empty();
  for (const auto& k : keys_) {
    if (k.kind != MatchKind::kExact) all_exact_ = false;
  }
}

std::size_t Table::ExactKeyHash::operator()(
    const std::vector<std::uint64_t>& k) const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ (std::uint64_t{k.size()} << 32);
  for (std::uint64_t v : k) {
    v *= 0xbf58476d1ce4e5b9ULL;
    v ^= v >> 27;
    v *= 0x94d049bb133111ebULL;
    v ^= v >> 31;
    h = (h ^ v) * 0x2545f4914f6cdd1dULL;
  }
  return static_cast<std::size_t>(h ^ (h >> 32));
}

void Table::index_add(std::size_t index) {
  key_scratch_.clear();
  for (const auto& k : entries_[index].keys) key_scratch_.push_back(k.value);
  exact_index_[key_scratch_].push_back(static_cast<std::uint32_t>(index));
}

void Table::rebuild_index() {
  exact_index_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) index_add(i);
  index_stale_ = false;
}

std::size_t Table::add_entry(TableEntry entry) {
  if (entry.keys.size() != keys_.size()) {
    throw std::invalid_argument("table '" + name_ + "': entry has " +
                                std::to_string(entry.keys.size()) +
                                " keys, table expects " +
                                std::to_string(keys_.size()));
  }
  const std::size_t index = entries_.size();
  entry_actions_.push_back(bound(entry.action));
  entries_.push_back(std::move(entry));
  ++revision_;
  if (tree_init_) {
    // The new entry takes the old default-action slot; the default leaf
    // moves to the appended slot. Real hashes land in content_digest().
    tree_.append_leaf(crypto::Digest{});
    dirty_entries_.push_back(index);
    default_dirty_ = true;
  }
  if (all_exact_ && !index_stale_) index_add(index);
  return index;
}

std::size_t Table::remove_entry(std::size_t index) {
  if (index >= entries_.size()) {
    throw std::out_of_range("table '" + name_ + "': remove_entry " +
                            std::to_string(index) + " of " +
                            std::to_string(entries_.size()));
  }
  const std::size_t last = entries_.size() - 1;
  if (all_exact_ && !index_stale_) {
    const auto bucket_remove = [&](const TableEntry& e, std::uint32_t idx) {
      key_scratch_.clear();
      for (const auto& k : e.keys) key_scratch_.push_back(k.value);
      const auto it = exact_index_.find(key_scratch_);
      if (it == exact_index_.end()) return;
      auto& bucket = it->second;
      for (auto bit = bucket.begin(); bit != bucket.end(); ++bit) {
        if (*bit == idx) {
          bucket.erase(bit);
          break;
        }
      }
      if (bucket.empty()) exact_index_.erase(it);
    };
    bucket_remove(entries_[index], static_cast<std::uint32_t>(index));
    if (index != last) {
      // The last entry moves into `index`: rewrite its bucket slot.
      bucket_remove(entries_[last], static_cast<std::uint32_t>(last));
    }
  }
  if (index != last) {
    entries_[index] = std::move(entries_[last]);
    entry_actions_[index] = entry_actions_[last];
    if (tree_init_) dirty_entries_.push_back(index);
    if (all_exact_ && !index_stale_) index_add(index);
  }
  entries_.pop_back();
  entry_actions_.pop_back();
  ++revision_;
  if (tree_init_) {
    tree_.truncate(entries_.size() + 1);  // entry leaves + default slot
    default_dirty_ = true;                // default leaf shifted down
  }
  return last;
}

TableEntry& Table::entry_mut(std::size_t index) {
  if (index >= entries_.size()) {
    throw std::out_of_range("table '" + name_ + "': entry_mut " +
                            std::to_string(index) + " of " +
                            std::to_string(entries_.size()));
  }
  ++revision_;
  if (tree_init_) dirty_entries_.push_back(index);
  index_stale_ = true;    // the caller may rewrite the keys
  actions_stale_ = true;  // ... or the action
  return entries_[index];
}

void Table::clear() {
  entries_.clear();
  entry_actions_.clear();
  actions_stale_ = false;
  ++revision_;
  tree_.clear();
  tree_init_ = false;
  dirty_entries_.clear();
  default_dirty_ = false;
  exact_index_.clear();
  index_stale_ = false;
}

void Table::set_mutation_profile(bool packet_writable, std::size_t capacity,
                                 EvictionPolicy eviction) {
  packet_writable_ = packet_writable;
  capacity_ = capacity;
  eviction_ = eviction;
  ++schema_revision_;
}

void Table::set_default(std::string action, std::vector<std::uint64_t> params) {
  default_action_ = std::move(action);
  default_params_ = std::move(params);
  default_bound_ = bound(default_action_);
  ++revision_;
  default_dirty_ = true;
}

namespace {
bool key_matches(const KeySpec& spec, const KeyMatch& m, std::uint64_t value) {
  switch (spec.kind) {
    case MatchKind::kExact:
      return value == m.value;
    case MatchKind::kLpm: {
      if (m.prefix_len == 0) return true;
      const unsigned width = spec.width == 0 || spec.width > 64 ? 64 : spec.width;
      const unsigned plen = m.prefix_len > width ? width : m.prefix_len;
      const std::uint64_t mask =
          plen >= 64 ? ~0ULL
                     : (((std::uint64_t{1} << plen) - 1) << (width - plen));
      return (value & mask) == (m.value & mask);
    }
    case MatchKind::kTernary:
      return (value & m.mask) == (m.value & m.mask);
  }
  return false;
}

unsigned entry_specificity(const Table& t, const TableEntry& e) {
  unsigned total = 0;
  for (std::size_t i = 0; i < e.keys.size(); ++i) {
    if (t.keys()[i].kind == MatchKind::kLpm) total += e.keys[i].prefix_len;
  }
  return total;
}
}  // namespace

void Table::bind_keys(const ParserProgram& parser) {
  std::vector<FieldSlot> slots;
  slots.reserve(keys_.size());
  for (const KeySpec& k : keys_) slots.push_back(parser.resolve(k.field));
  key_slots_ = std::move(slots);
  slots_parser_ = parser.id();
}

void Table::bind_actions(const ActionTable* actions) {
  actions_ = actions;
  resolve_actions();
}

const BoundAction* Table::bound(const std::string& action) const {
  if (actions_ == nullptr) return nullptr;
  const auto it = actions_->find(action);
  return it == actions_->end() ? nullptr : &it->second;
}

void Table::resolve_actions() {
  entry_actions_.clear();
  for (const TableEntry& e : entries_) entry_actions_.push_back(bound(e.action));
  default_bound_ = bound(default_action_);
  actions_stale_ = false;
}

bool Table::read_keys(const ParsedPacket& pkt) {
  packet_keys_.clear();
  const ParserProgram* parser = pkt.parser();
  if (parser == nullptr) {  // hand-built: resolve against the packet
    for (const KeySpec& k : keys_) {
      const auto v = read_key_field(pkt, k.field);
      if (!v) return false;
      packet_keys_.push_back(*v);
    }
    return true;
  }
  if (parser->id() != slots_parser_) bind_keys(*parser);
  for (const FieldSlot& slot : key_slots_) {
    const auto v = pkt.read(slot);
    if (!v) return false;  // absent header: no entry can match
    packet_keys_.push_back(*v);
  }
  return true;
}

TableEntry* Table::find_exact() {
  if (index_stale_) rebuild_index();
  const auto it = exact_index_.find(packet_keys_);
  if (it == exact_index_.end()) return nullptr;
  // Same tie-breaking as the scan: highest priority, then lowest index
  // (exact keys contribute zero LPM specificity).
  TableEntry* best = nullptr;
  std::uint32_t best_idx = 0;
  for (const std::uint32_t idx : it->second) {
    TableEntry& e = entries_[idx];
    if (best == nullptr || e.priority > best->priority ||
        (e.priority == best->priority && idx < best_idx)) {
      best = &e;
      best_idx = idx;
    }
  }
  return best;
}

TableEntry* Table::find_scan() {
  TableEntry* best = nullptr;
  unsigned best_spec = 0;
  for (auto& e : entries_) {
    bool match = true;
    for (std::size_t i = 0; i < keys_.size() && match; ++i) {
      match = key_matches(keys_[i], e.keys[i], packet_keys_[i]);
    }
    if (!match) continue;
    const unsigned spec = entry_specificity(*this, e);
    if (best == nullptr || e.priority > best->priority ||
        (e.priority == best->priority && spec > best_spec)) {
      best = &e;
      best_spec = spec;
    }
  }
  return best;
}

Table::Selection Table::select(const ParsedPacket& pkt) {
  Selection sel;
  sel.entry = lookup(pkt);
  if (actions_stale_) resolve_actions();
  if (sel.entry != nullptr) {
    const auto index = static_cast<std::size_t>(sel.entry - entries_.data());
    sel.action = &sel.entry->action;
    sel.bound = entry_actions_[index];
    sel.params = &sel.entry->action_params;
  } else if (!default_action_.empty()) {
    sel.action = &default_action_;
    sel.bound = default_bound_;
    sel.params = &default_params_;
  }
  return sel;
}

TableEntry* Table::lookup(const ParsedPacket& pkt) {
  if (!read_keys(pkt)) return nullptr;
  TableEntry* best = all_exact_ ? find_exact() : find_scan();
  if (best != nullptr) ++best->hit_count;
  return best;
}

TableEntry* Table::lookup_scan(const ParsedPacket& pkt) {
  if (!read_keys(pkt)) return nullptr;
  TableEntry* best = find_scan();
  if (best != nullptr) ++best->hit_count;
  return best;
}

crypto::Digest Table::entry_leaf(const TableEntry& e) {
  crypto::Bytes buf;
  for (const auto& k : e.keys) {
    crypto::append_u64(buf, k.value);
    crypto::append_u32(buf, k.prefix_len);
    crypto::append_u64(buf, k.mask);
  }
  crypto::append_u32(buf, e.priority);
  crypto::append_str(buf, e.action);
  for (std::uint64_t p : e.action_params) crypto::append_u64(buf, p);
  return crypto::sha256(crypto::BytesView{buf.data(), buf.size()});
}

crypto::Digest Table::default_leaf() const {
  crypto::Bytes buf;
  crypto::append_str(buf, default_action_);
  for (std::uint64_t p : default_params_) crypto::append_u64(buf, p);
  return crypto::sha256(crypto::BytesView{buf.data(), buf.size()});
}

void Table::flush_dirty_leaves() const {
  if (!tree_init_) {
    std::vector<crypto::Digest> leaves;
    leaves.reserve(entries_.size() + 1);
    for (const auto& e : entries_) leaves.push_back(entry_leaf(e));
    leaves.push_back(default_leaf());
    tree_.assign(std::move(leaves));
    tree_init_ = true;
    dirty_entries_.clear();
    default_dirty_ = false;
    PERA_OBS_COUNT("dataplane.digest.table.full");
    PERA_OBS_COUNT("dataplane.digest.table.dirty_leaves",
                   entries_.size() + 1);
    return;
  }
  std::uint64_t dirty = 0;
  for (const std::size_t i : dirty_entries_) {
    if (i >= entries_.size()) continue;  // removed before this digest
    tree_.set_leaf(i, entry_leaf(entries_[i]));
    ++dirty;
  }
  if (default_dirty_) {
    tree_.set_leaf(entries_.size(), default_leaf());
    ++dirty;
  }
  dirty_entries_.clear();
  default_dirty_ = false;
  PERA_OBS_COUNT("dataplane.digest.table.incremental");
  if (dirty > 0) PERA_OBS_COUNT("dataplane.digest.table.dirty_leaves", dirty);
}

crypto::Digest Table::content_digest() const {
  flush_dirty_leaves();
  const std::uint64_t before = tree_.stats().nodes_rehashed;
  const crypto::Digest root = tree_.root();
  PERA_OBS_COUNT("dataplane.digest.table.nodes_rehashed",
                 tree_.stats().nodes_rehashed - before);
  return root;
}

crypto::Digest Table::content_digest_full() const {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(entries_.size() + 1);
  for (const auto& e : entries_) leaves.push_back(entry_leaf(e));
  leaves.push_back(default_leaf());
  return crypto::MerkleTree(std::move(leaves)).root();
}

crypto::Bytes Table::encode_schema() const {
  crypto::Bytes out;
  crypto::append_str(out, name_);
  crypto::append_u32(out, static_cast<std::uint32_t>(keys_.size()));
  for (const auto& k : keys_) {
    crypto::append_str(out, k.field.str());
    out.push_back(static_cast<std::uint8_t>(k.kind));
    crypto::append_u32(out, k.width);
  }
  out.push_back(packet_writable_ ? 1 : 0);
  crypto::append_u64(out, capacity_);
  out.push_back(static_cast<std::uint8_t>(eviction_));
  return out;
}

}  // namespace pera::dataplane
