// Match-action tables with exact, LPM and ternary matching — the
// "Match + Action" stage of Fig. 3.
//
// Key fields may reference packet headers ("ipv4.dst") or intrinsic
// metadata via the pseudo-header "meta" ("meta.ingress_port", "meta.user0").
// Entries bind an action name and its parameters; the winning entry is the
// highest-priority match (ties broken by longest LPM prefix, then insertion
// order). Table contents are Merkle-hashable for table attestation.
//
// Two production-scale mechanisms live here:
//   * content_digest() is incremental: each entry owns a Merkle leaf slot
//     that is invalidated on add/remove/modify/default-action change, so
//     re-measuring the table costs O(changes since last digest), not
//     O(entries). content_digest_full() keeps the O(n) reference path and
//     the two are bit-identical by construction (asserted in tests/bench).
//   * lookup() uses an exact-match hash index when every key spec is
//     kExact (LPM/ternary/mixed tables keep the linear scan), so per-packet
//     cost is O(1) at million-entry scale. lookup_scan() is the reference.
//
// Names are resolved ahead of the packet path. The key fields resolve to
// FieldSlots against a parser (bind_keys, at program build; a packet from
// another parser resolves them again, once per parser), and each lookup
// reads every key once before matching. Entry and default action names
// resolve to BoundActions when the entry is added (bind_actions hands
// the table its program's actions).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/incremental_merkle.h"
#include "crypto/merkle.h"
#include "dataplane/action.h"
#include "dataplane/packet.h"

namespace pera::dataplane {

enum class MatchKind : std::uint8_t { kExact = 0, kLpm = 1, kTernary = 2 };

/// How a capacity-bounded table sheds entries when full. Part of the
/// mutation metadata consumed by the V9 exhaustion-reachability check:
/// a packet-writable table with kNone is exhaustible from the wire.
enum class EvictionPolicy : std::uint8_t { kNone = 0, kLru = 1, kTtl = 2 };

struct KeySpec {
  FieldRef field;
  MatchKind kind = MatchKind::kExact;
  unsigned width = 64;  // field width in bits; LPM prefixes count from its MSB
};

/// One key's match criterion in an entry.
struct KeyMatch {
  std::uint64_t value = 0;
  unsigned prefix_len = 64;        // kLpm: number of significant leading bits
  std::uint64_t mask = ~0ULL;      // kTernary

  static KeyMatch exact(std::uint64_t v) { return {v, 64, ~0ULL}; }
  static KeyMatch lpm(std::uint64_t v, unsigned plen) { return {v, plen, 0}; }
  static KeyMatch ternary(std::uint64_t v, std::uint64_t m) { return {v, 0, m}; }
  static KeyMatch wildcard() { return {0, 0, 0}; }
};

struct TableEntry {
  std::vector<KeyMatch> keys;             // parallel to the table's KeySpecs
  std::uint32_t priority = 0;             // higher wins
  std::string action;
  std::vector<std::uint64_t> action_params;
  std::uint64_t hit_count = 0;            // updated on lookup (not attested)
};

/// Read a key field from packet or metadata, resolving the name against
/// the packet. Returns nullopt when the referenced header is absent (such
/// entries can only match wildcards — we treat absent as "no match" for
/// simplicity, like bmv2's invalid-key behaviour with miss).
[[nodiscard]] std::optional<std::uint64_t> read_key_field(
    const ParsedPacket& pkt, const FieldRef& ref);

class Table {
 public:
  Table(std::string name, std::vector<KeySpec> keys);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<KeySpec>& keys() const { return keys_; }

  /// Add an entry; returns its index. Throws std::invalid_argument when the
  /// key count doesn't match the table's key specs.
  std::size_t add_entry(TableEntry entry);

  /// Remove entry `index` by swapping the last entry into its slot (the
  /// digest is order-sensitive over whatever order the vector holds, so
  /// both the incremental and the full path see the same sequence).
  /// Returns the index the formerly-last entry moved *from* — i.e. the new
  /// entry_count() — so callers tracking entry indices can remap; when
  /// `index` was already last, nothing moved and the return equals `index`.
  /// Throws std::out_of_range.
  std::size_t remove_entry(std::size_t index);

  /// Mutable access to entry `index` for in-place modification. Marks the
  /// entry's digest leaf dirty and invalidates the exact-match index (the
  /// caller may change keys). Throws std::out_of_range.
  [[nodiscard]] TableEntry& entry_mut(std::size_t index);

  void clear();
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  [[nodiscard]] const std::vector<TableEntry>& entries() const {
    return entries_;
  }

  /// Default action when no entry matches ("" = no-op miss).
  void set_default(std::string action, std::vector<std::uint64_t> params = {});
  [[nodiscard]] const std::string& default_action() const {
    return default_action_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& default_params() const {
    return default_params_;
  }

  /// Mutation metadata for the static coverage analyzer (V6/V9). A table
  /// is "packet-writable" when entries are installed in response to packet
  /// arrivals (flow learning, NAT bindings) rather than purely by operator
  /// intent; such tables must declare a capacity bound plus an eviction
  /// policy or an adversary can exhaust them from the wire. The metadata is
  /// part of the program schema (it changes what the program *is*, not what
  /// its state holds), so it feeds encode_schema()/program_digest(), and
  /// setting it bumps schema_revision().
  void set_mutation_profile(bool packet_writable, std::size_t capacity,
                            EvictionPolicy eviction);
  [[nodiscard]] bool packet_writable() const { return packet_writable_; }
  /// Entry budget; 0 = unbounded.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] EvictionPolicy eviction() const { return eviction_; }

  /// Monotone content revision: bumped on every mutation that can change
  /// content_digest() (add/remove/modify/default/clear — NOT lookups,
  /// which only touch hit counters). Measurement epochs derive from this.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// Monotone schema revision: bumped by set_mutation_profile, the one
  /// table edit encode_schema() can see.
  [[nodiscard]] std::uint64_t schema_revision() const {
    return schema_revision_;
  }

  /// True when lookups go through the exact-match hash index (every key
  /// spec is kExact).
  [[nodiscard]] bool exact_indexed() const { return all_exact_; }

  /// Resolve the key fields against `parser`'s schema. Throws like
  /// resolve_field (an unknown metadata field, a field a header lacks).
  void bind_keys(const ParserProgram& parser);

  /// Resolve entry and default action names against `actions` (a
  /// program's; they must outlive the table). Names it lacks resolve to
  /// null, so running them fails as before.
  void bind_actions(const ActionTable* actions);

  /// What one packet selects: the best entry (null on a miss) and the
  /// action to run with its parameters — the entry's, or the default on
  /// a miss. `action` is null for a no-op miss; `bound` is null when
  /// `action` names nothing bind_actions knows.
  struct Selection {
    TableEntry* entry = nullptr;
    const std::string* action = nullptr;
    const BoundAction* bound = nullptr;
    const std::vector<std::uint64_t>* params = nullptr;
  };
  [[nodiscard]] Selection select(const ParsedPacket& pkt);

  /// Look up the best-matching entry. Updates its hit counter.
  /// Returns nullptr on miss.
  [[nodiscard]] TableEntry* lookup(const ParsedPacket& pkt);

  /// Reference O(entries) lookup (always scans). Identical result to
  /// lookup(); kept for differential tests and mixed-match tables.
  [[nodiscard]] TableEntry* lookup_scan(const ParsedPacket& pkt);

  /// Merkle root over entries (order-sensitive) — the "Tables" inertia
  /// level of Fig. 4. Includes the default action. Incremental: only
  /// leaves dirtied since the previous call are rehashed.
  [[nodiscard]] crypto::Digest content_digest() const;

  /// Reference full recompute (hashes every entry, rebuilds the tree).
  /// Bit-identical to content_digest().
  [[nodiscard]] crypto::Digest content_digest_full() const;

  /// Canonical encoding of the table *schema* (name/keys), for program
  /// attestation (entries are state, schema is program).
  [[nodiscard]] crypto::Bytes encode_schema() const;

 private:
  struct ExactKeyHash {
    std::size_t operator()(const std::vector<std::uint64_t>& k) const;
  };

  // Read every key of `pkt` into packet_keys_; false when one is absent.
  [[nodiscard]] bool read_keys(const ParsedPacket& pkt);
  [[nodiscard]] TableEntry* find_exact();
  [[nodiscard]] TableEntry* find_scan();
  [[nodiscard]] const BoundAction* bound(const std::string& action) const;
  void resolve_actions();
  [[nodiscard]] static crypto::Digest entry_leaf(const TableEntry& e);
  [[nodiscard]] crypto::Digest default_leaf() const;
  void flush_dirty_leaves() const;
  void rebuild_index();
  void index_add(std::size_t index);

  std::string name_;
  std::vector<KeySpec> keys_;
  std::vector<TableEntry> entries_;
  std::string default_action_;
  std::vector<std::uint64_t> default_params_;
  std::uint64_t revision_ = 0;
  bool packet_writable_ = false;
  std::size_t capacity_ = 0;
  EvictionPolicy eviction_ = EvictionPolicy::kNone;
  std::uint64_t schema_revision_ = 0;

  // Incremental digest state. Leaf layout: entry i -> leaf i, default
  // action -> leaf entry_count(). Structural tree ops (append/truncate/
  // slot shifts) happen eagerly with placeholder digests; the actual leaf
  // hashes are computed lazily in content_digest().
  mutable crypto::IncrementalMerkleTree tree_;
  mutable bool tree_init_ = false;
  mutable std::vector<std::size_t> dirty_entries_;
  mutable bool default_dirty_ = false;

  // Exact-match hash index: key values -> entry indices holding exactly
  // those values (usually one; duplicates resolved by priority then
  // insertion order, matching the scan).
  bool all_exact_ = false;
  bool index_stale_ = false;
  std::unordered_map<std::vector<std::uint64_t>, std::vector<std::uint32_t>,
                     ExactKeyHash>
      exact_index_;
  std::vector<std::uint64_t> key_scratch_;

  // Resolved names. key_slots_ applies to packets of parser id
  // slots_parser_ (0: none yet). entry_actions_ is parallel to entries_;
  // entry_mut may rename an action, so it marks them stale.
  std::uint64_t slots_parser_ = 0;
  std::vector<FieldSlot> key_slots_;
  std::vector<std::uint64_t> packet_keys_;
  const ActionTable* actions_ = nullptr;
  std::vector<const BoundAction*> entry_actions_;
  const BoundAction* default_bound_ = nullptr;
  bool actions_stale_ = false;
};

}  // namespace pera::dataplane
