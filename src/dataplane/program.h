// A complete dataplane program: parse graph, actions, match-action tables
// and register declarations — the unit that gets loaded onto a switch and,
// in this paper, the unit that gets *attested*.
//
// Digest levels correspond to Fig. 4's inertia axis:
//   program_digest()  — parser + actions + table schemas + register decls
//                       (changes when the program is swapped or its
//                       schema is edited; schema_revision() counts edits)
//   tables_digest()   — Merkle root over table *contents*
//                       (changes on control-plane updates)
// Register state (fastest-changing) is digested by RegisterFile itself.
// Both digests are computed afresh on every call: they are the reference
// that pera::MeasurementUnit's per-switch memo is held to.
//
// A program resolves its names as it is built: add_action binds the
// action's field references against the parser's schema, and add_table
// binds the table's keys and hands it the resolved actions, so entries
// resolve their action names as they are added. check_entry is the
// control plane's test that an entry can be added and run.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/action.h"
#include "dataplane/parser.h"
#include "dataplane/registers.h"
#include "dataplane/table.h"

namespace pera::dataplane {

/// What keeps a packet-path register array from unbounded adversarial
/// growth or wedging (V9 exhaustion metadata):
///   kSlotRecycle — slots are reclaimed/overwritten when the owning flow
///                  is evicted (StatefulNat's LRU slot reuse);
///   kSaturate    — writes clamp at a bound instead of growing state.
enum class StateGuard : std::uint8_t { kNone = 0, kSlotRecycle = 1,
                                       kSaturate = 2 };

/// A register array declaration plus its mutation metadata.
struct RegisterDecl {
  std::string name;
  std::size_t size = 0;
  bool packet_writable = false;  // mutated on the per-packet path
  StateGuard guard = StateGuard::kNone;
};

/// One attestable unit of mutable dataplane state, enumerated for the
/// V6-V9 coverage analyzer. `capacity` is the entry budget for tables
/// (0 = unbounded) and the array size for registers; `guarded` means an
/// eviction policy (tables) or StateGuard (registers) bounds adversarial
/// growth.
struct StateObject {
  enum class Kind : std::uint8_t { kTable = 0, kRegister = 1 };
  Kind kind = Kind::kTable;
  std::string name;
  std::size_t capacity = 0;
  bool packet_writable = false;
  bool guarded = false;
};

class DataplaneProgram {
 public:
  DataplaneProgram(std::string name, std::string version,
                   ParserProgram parser)
      : name_(std::move(name)),
        version_(std::move(version)),
        parser_(std::move(parser)) {}
  // Tables keep the address of bound_actions_.
  DataplaneProgram(const DataplaneProgram&) = delete;
  DataplaneProgram& operator=(const DataplaneProgram&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& version() const { return version_; }
  [[nodiscard]] const ParserProgram& parser() const { return parser_; }

  /// Add or replace an action. Throws like resolve_field when an op names
  /// an unknown metadata field or a field its header lacks.
  void add_action(ActionDef action);
  [[nodiscard]] const ActionDef* action(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, ActionDef>& actions() const {
    return actions_;
  }

  /// Append a table to the ingress pipeline (executed in insertion order).
  /// Throws like resolve_field for a key the parser's schema cannot read.
  Table& add_table(std::string name, std::vector<KeySpec> keys);
  [[nodiscard]] Table* table(const std::string& name);
  [[nodiscard]] const Table* table(const std::string& name) const;

  /// Throw std::invalid_argument unless `entry` can be added to table
  /// `table` and run: the table exists, the key count matches, and the
  /// action exists and gets at least the parameters it reads.
  void check_entry(const std::string& table, const TableEntry& entry) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Table>>& tables() const {
    return tables_;
  }

  void declare_register(const std::string& name, std::size_t size,
                        bool packet_writable = false,
                        StateGuard guard = StateGuard::kNone);
  [[nodiscard]] const std::vector<RegisterDecl>& register_decls() const {
    return register_decls_;
  }

  /// Enumerate every mutable state object (tables + register arrays) with
  /// its declared mutation metadata — the program-side input to the V6-V9
  /// attestation-coverage analyzer.
  [[nodiscard]] std::vector<StateObject> state_objects() const;

  /// Code-level digest — the "Program" inertia level (parser, actions,
  /// table schemas, register declarations; NOT table entries).
  [[nodiscard]] crypto::Digest program_digest() const;

  /// State-level digest of table contents — the "Tables" inertia level.
  /// Each table's root is maintained incrementally (O(changes) per
  /// measurement); the top tree over the per-table roots is tiny.
  [[nodiscard]] crypto::Digest tables_digest() const;

  /// Reference full recompute (every entry of every table rehashed).
  /// Bit-identical to tables_digest().
  [[nodiscard]] crypto::Digest tables_digest_full() const;

  /// Sum of every table's content revision — advances exactly when some
  /// table's content (and hence tables_digest()) can have changed.
  [[nodiscard]] std::uint64_t tables_revision() const;

  /// Schema revision — advances on every edit program_digest() can see:
  /// add_action, add_table and declare_register here, and each table's
  /// set_mutation_profile (Table::schema_revision, summed in the way
  /// tables_revision() is). Kept with the program, not per switch,
  /// because switches may share one program.
  [[nodiscard]] std::uint64_t schema_revision() const;

 private:
  std::string name_;
  std::string version_;
  ParserProgram parser_;
  std::map<std::string, ActionDef> actions_;
  ActionTable bound_actions_;  // actions_ resolved against parser_
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<RegisterDecl> register_decls_;
  std::uint64_t schema_revision_ = 0;  // this program's own edits
};

/// Per-switch processing statistics.
struct SwitchStats {
  std::uint64_t packets_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t table_lookups = 0;
  std::uint64_t table_hits = 0;
};

/// The PISA software switch: parse -> match+action pipeline -> deparse.
/// Stages are public so the PERA extension can interleave its evidence
/// stages (Fig. 3 points A-E) around them.
class PisaSwitch {
 public:
  explicit PisaSwitch(std::shared_ptr<DataplaneProgram> program);

  /// Hot-swap the running program (what the Athens attacker did). Register
  /// state is re-declared from the new program.
  void load_program(std::shared_ptr<DataplaneProgram> program);

  /// Programs loaded so far, the constructor's included. Measurement
  /// epochs derive from it: a load changes what every level reads.
  [[nodiscard]] std::uint64_t loads() const { return loads_; }

  [[nodiscard]] const DataplaneProgram& program() const { return *program_; }
  [[nodiscard]] DataplaneProgram& program() { return *program_; }
  [[nodiscard]] std::shared_ptr<DataplaneProgram> program_ptr() {
    return program_;
  }

  [[nodiscard]] RegisterFile& registers() { return regs_; }
  [[nodiscard]] const RegisterFile& registers() const { return regs_; }
  [[nodiscard]] const SwitchStats& stats() const { return stats_; }

  // --- individual stages (for PERA interleaving) -------------------------
  /// Parse. Counts parse errors; on error rethrows std::runtime_error.
  [[nodiscard]] ParsedPacket parse(const RawPacket& raw);
  /// The same into `into`, reusing its buffers (ParserProgram::parse).
  void parse(const RawPacket& raw, ParsedPacket& into);

  /// Run every table in pipeline order (executes matched actions).
  void run_pipeline(ParsedPacket& pkt);

  /// Deparse to wire bytes with the egress port. Returns nullopt when the
  /// packet was dropped.
  [[nodiscard]] std::optional<RawPacket> deparse(const ParsedPacket& pkt);

  // --- whole-switch convenience ------------------------------------------
  /// Full parse/pipeline/deparse. Returns nullopt when dropped or on
  /// parse error.
  [[nodiscard]] std::optional<RawPacket> process(const RawPacket& raw);

 private:
  std::shared_ptr<DataplaneProgram> program_;
  RegisterFile regs_;
  SwitchStats stats_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t loads_ = 0;
};

}  // namespace pera::dataplane
