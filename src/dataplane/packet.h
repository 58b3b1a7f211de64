// Packet representations for the software switch.
//
// RawPacket is bytes on a wire. ParsedPacket is the PISA-internal view:
// extracted header instances (field -> value), standard metadata, and the
// unparsed payload tail. The deparser re-serializes valid headers in
// extraction order, so parse -> deparse round-trips.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "dataplane/field.h"

namespace pera::dataplane {

using crypto::Bytes;
using crypto::BytesView;

/// Bytes on the wire plus the arrival port.
struct RawPacket {
  std::uint32_t port = 0;
  Bytes data;
};

/// One extracted header instance.
struct HeaderInstance {
  const HeaderSpec* spec = nullptr;  // borrowed from the program's schema
  bool valid = false;
  std::vector<std::uint64_t> values;  // parallel to spec->fields

  [[nodiscard]] std::uint64_t get(const std::string& field) const;
  void set(const std::string& field, std::uint64_t value);
};

/// Standard intrinsic metadata (a subset of v1model's).
struct Metadata {
  std::uint32_t ingress_port = 0;
  std::uint32_t egress_port = 0;
  bool drop = false;
  std::uint64_t packet_id = 0;   // simulator-assigned
  std::uint64_t user0 = 0;       // scratch metadata for programs
  std::uint64_t user1 = 0;
};

/// The switch-internal packet view.
class ParsedPacket {
 public:
  Metadata meta;

  /// Add a header instance (in wire order). Returns a reference to it.
  HeaderInstance& add_header(const HeaderSpec& spec);

  [[nodiscard]] bool has(const std::string& header) const;
  [[nodiscard]] HeaderInstance* find(const std::string& header);
  [[nodiscard]] const HeaderInstance* find(const std::string& header) const;

  /// Read a field; throws std::out_of_range if header absent/invalid.
  [[nodiscard]] std::uint64_t get(const FieldRef& ref) const;
  [[nodiscard]] std::uint64_t get(const std::string& ref) const {
    return get(parse_field_ref(ref));
  }

  /// Write a field; throws std::out_of_range if header absent/invalid.
  void set(const FieldRef& ref, std::uint64_t value);
  void set(const std::string& ref, std::uint64_t value) {
    set(parse_field_ref(ref), value);
  }

  [[nodiscard]] const std::vector<HeaderInstance>& headers() const {
    return headers_;
  }
  [[nodiscard]] std::vector<HeaderInstance>& headers() { return headers_; }

  Bytes payload;  // unparsed tail

  /// Re-serialize valid headers (in order) followed by the payload.
  [[nodiscard]] Bytes deparse() const;

 private:
  std::vector<HeaderInstance> headers_;
};

/// Serialize field values into bytes per the spec (big-endian bit packing;
/// a field need not start on a byte boundary). Bits of a value above its
/// field's width are dropped. Throws std::invalid_argument on a value count
/// that does not match the spec or a field wider than 64 bits.
[[nodiscard]] Bytes pack_header(const HeaderSpec& spec,
                                const std::vector<std::uint64_t>& values);

/// Extract field values from bytes. Throws std::invalid_argument if the
/// buffer is shorter than the header or a field is wider than 64 bits.
[[nodiscard]] std::vector<std::uint64_t> unpack_header(const HeaderSpec& spec,
                                                       BytesView data);

/// unpack_header into caller storage of spec.fields.size() values.
void unpack_header(const HeaderSpec& spec, BytesView data,
                   std::uint64_t* values);

}  // namespace pera::dataplane
