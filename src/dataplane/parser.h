// Programmable parser: a parse graph in the P4 style.
//
// Each state extracts one header and selects the next state by the value
// of one field of the header just extracted (or transitions
// unconditionally). Parsing starts at "start" and ends at the implicit
// "accept" state; leftover bytes become the payload.
//
// add_state resolves the graph: state names become indices, header names
// become HeaderFormats and select fields become field indices, so parse()
// follows indices and compares no strings. A name that does not resolve
// (a missing state or header, a select field the header lacks) fails
// only when a packet reaches it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dataplane/packet.h"

namespace pera::dataplane {

/// Transition select on one field of the extracted header.
struct ParserSelect {
  std::string field;                              // field of this state's header
  std::map<std::uint64_t, std::string> cases;     // value -> next state
  std::string default_next = "accept";
};

struct ParserState {
  std::string name;
  std::string header;  // header spec to extract, "" = extract nothing
  std::optional<ParserSelect> select;  // nullopt = unconditional
  std::string next = "accept";         // used when !select
};

class ParserProgram {
 public:
  /// `schema` maps header names to specs; parsed packets borrow them.
  explicit ParserProgram(std::map<std::string, HeaderSpec> schema);

  void add_state(ParserState state);

  [[nodiscard]] const std::map<std::string, HeaderSpec>& schema() const {
    return schema_;
  }
  [[nodiscard]] const std::map<std::string, ParserState>& states() const {
    return states_;
  }

  /// Parse a raw packet into a ParsedPacket. Throws std::runtime_error on
  /// unknown states or headers, a select field the header lacks and a
  /// loop in the parse graph, and
  /// std::invalid_argument (from unpack_header) when the packet is shorter
  /// than a header it must extract.
  [[nodiscard]] ParsedPacket parse(const RawPacket& raw) const;

  /// The same into `into`, replacing its contents but keeping its
  /// buffers' capacity (a caller parsing packet after packet allocates
  /// only while they grow).
  void parse(const RawPacket& raw, ParsedPacket& into) const;

  /// Canonical encoding of the parse graph, for program attestation.
  [[nodiscard]] crypto::Bytes encode() const;

  /// Resolve `ref` against the schema: the slot reads the header specs
  /// this parser's packets carry. A header the schema lacks resolves to a
  /// slot that is never present. Throws like resolve_field.
  [[nodiscard]] FieldSlot resolve(const FieldRef& ref) const;

  /// Distinct for every ParserProgram object, copies included: a slot
  /// resolved against the parser with this id applies to its packets.
  [[nodiscard]] std::uint64_t id() const { return id_.value; }

 private:
  // Fresh on construction and on copy; a move keeps it, as the moved
  // formats keep their addresses.
  struct Id {
    Id();
    Id(const Id&) : Id() {}
    Id(Id&&) noexcept = default;
    Id& operator=(const Id&) {
      *this = Id();
      return *this;
    }
    Id& operator=(Id&&) noexcept = default;
    std::uint64_t value;
  };

  // A state resolved to indices. Targets index nodes_; kAccept ends.
  struct Node {
    std::string error;        // non-empty: parsing fails on reaching it
    int format = -1;          // index into formats_, -1 = extract nothing
    int select_field = -1;    // field of the extracted header, -1 = none
    std::vector<std::pair<std::uint64_t, int>> cases;
    int next = -1;            // default / unconditional target
  };
  static constexpr int kAccept = -1;

  void resolve_graph();

  std::map<std::string, HeaderSpec> schema_;
  std::map<std::string, ParserState> states_;
  std::vector<HeaderFormat> formats_;  // schema order
  std::vector<Node> nodes_;            // nodes_[0] is "start"
  std::size_t max_values_ = 0;         // fields of the whole schema
  Id id_;
};

}  // namespace pera::dataplane
