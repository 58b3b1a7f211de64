// Programmable parser: a parse graph in the P4 style.
//
// Each state extracts one header and selects the next state by the value
// of one field of the header just extracted (or transitions
// unconditionally). Parsing starts at "start" and ends at the implicit
// "accept" state; leftover bytes become the payload.
#pragma once

#include <map>
#include <optional>
#include <string>

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
  /// `schema` maps header names to specs; the program borrows it.
  explicit ParserProgram(std::map<std::string, HeaderSpec> schema)
      : schema_(std::move(schema)) {}

  void add_state(ParserState state);

  [[nodiscard]] const std::map<std::string, HeaderSpec>& schema() const {
    return schema_;
  }
  [[nodiscard]] const std::map<std::string, ParserState>& states() const {
    return states_;
  }

  /// Parse a raw packet into a ParsedPacket. Throws std::runtime_error on
  /// unknown states or headers and on a loop in the parse graph, and
  /// std::invalid_argument (from unpack_header) when the packet is shorter
  /// than a header it must extract.
  [[nodiscard]] ParsedPacket parse(const RawPacket& raw) const;

  /// Canonical encoding of the parse graph, for program attestation.
  [[nodiscard]] crypto::Bytes encode() const;

 private:
  std::map<std::string, HeaderSpec> schema_;
  std::map<std::string, ParserState> states_;
};

}  // namespace pera::dataplane
