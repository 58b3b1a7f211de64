// Packet representations for the software switch.
//
// RawPacket is bytes on a wire. ParsedPacket is the PISA-internal view:
// extracted header instances, standard metadata, and the unparsed payload
// tail. The deparser re-serializes valid headers in extraction order, so
// parse -> deparse round-trips.
//
// Names are resolved before packets arrive: a HeaderFormat holds a header
// spec with every field's byte window precomputed, and a FieldSlot is a
// "header.field" reference resolved to a header spec and a field index (or
// a metadata field). A packet keeps every header's values in one flat
// buffer; reading or writing through a slot compares spec pointers, not
// strings. The string accessors resolve the name against the packet and
// then take the same slot path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "dataplane/field.h"

namespace pera::dataplane {

using crypto::Bytes;
using crypto::BytesView;

class ParserProgram;

/// Bytes on the wire plus the arrival port.
struct RawPacket {
  std::uint32_t port = 0;
  Bytes data;
};

/// Where one field sits in its packed header. A field is at most 64 bits
/// wide and starts at most 7 bits into its first byte, so it lies inside a
/// big-endian window of at most 9 bytes.
struct FieldWindow {
  std::uint32_t first = 0;  // index of the field's first byte
  std::uint32_t span = 0;   // bytes the field touches, 1..9
  std::uint32_t shift = 0;  // bits below the field in the window
  std::uint64_t mask = 0;   // the field's width as a mask
};

/// A header spec resolved for the codec: its byte width and every field's
/// window, computed once. Throws std::invalid_argument on a field wider
/// than 64 bits.
class HeaderFormat {
 public:
  explicit HeaderFormat(HeaderSpec spec);

  [[nodiscard]] const HeaderSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t byte_width() const { return bytes_; }
  [[nodiscard]] std::size_t field_count() const { return windows_.size(); }

  /// Read the fields out of byte_width() bytes at `data`.
  void unpack(const std::uint8_t* data, std::uint64_t* values) const;

  /// OR the packed fields into byte_width() zero bytes at `out`. Bits of a
  /// value above its field's width are dropped.
  void pack(const std::uint64_t* values, std::uint8_t* out) const;

 private:
  HeaderSpec spec_;
  std::size_t bytes_ = 0;
  std::vector<FieldWindow> windows_;
};

/// A header's field values: a view of its packet's flat value buffer, in
/// spec order. Assigning a vector copies into the buffer.
class FieldValues {
 public:
  using iterator = std::uint64_t*;
  using const_iterator = const std::uint64_t*;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint64_t* data() { return data_; }
  [[nodiscard]] const std::uint64_t* data() const { return data_; }
  [[nodiscard]] std::uint64_t& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] std::uint64_t operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }

  /// Copy `values` in; throws std::invalid_argument on a count mismatch.
  FieldValues& operator=(const std::vector<std::uint64_t>& values);
  operator std::vector<std::uint64_t>() const { return {begin(), end()}; }

  friend bool operator==(const FieldValues& a,
                         const std::vector<std::uint64_t>& b);

 private:
  friend class ParsedPacket;
  std::uint64_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One extracted header instance.
class HeaderInstance {
 public:
  const HeaderSpec* spec = nullptr;  // borrowed from the program's schema
  bool valid = false;
  FieldValues values;  // parallel to spec->fields

  /// By field name; throws std::out_of_range for a field the spec lacks.
  /// set stores `value` masked to the field's width.
  [[nodiscard]] std::uint64_t get(const std::string& field) const;
  void set(const std::string& field, std::uint64_t value);

 private:
  friend class ParsedPacket;
  const HeaderFormat* format_ = nullptr;  // null for a hand-built header
  std::size_t offset_ = 0;                // into the packet's value buffer
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

/// A FieldRef resolved to indices: field `field` of the first instance of
/// the header whose spec is `header` (compared by address), or one of the
/// metadata fields of the pseudo-header "meta".
struct FieldSlot {
  enum class Kind : std::uint8_t {
    kHeader,
    kIngressPort,
    kEgressPort,
    kPacketId,
    kUser0,
    kUser1,
  };
  Kind kind = Kind::kHeader;
  const HeaderSpec* header = nullptr;  // null: never present
  std::uint32_t field = 0;
  std::uint64_t mask = ~std::uint64_t{0};  // the field's width
};

/// Resolve `ref`, where `header` is the spec its header name denotes (null
/// when there is none). Throws std::invalid_argument for an unknown "meta"
/// field and std::out_of_range for a field `header` lacks.
[[nodiscard]] FieldSlot resolve_field(const FieldRef& ref,
                                      const HeaderSpec* header);

/// The switch-internal packet view.
class ParsedPacket {
 public:
  Metadata meta;
  Bytes payload;  // unparsed tail

  ParsedPacket() = default;
  ParsedPacket(const ParsedPacket& other);
  ParsedPacket& operator=(const ParsedPacket& other);
  ParsedPacket(ParsedPacket&&) noexcept = default;
  ParsedPacket& operator=(ParsedPacket&&) noexcept = default;

  /// Add a zeroed header instance (in wire order). The reference is valid
  /// until the next add_header.
  HeaderInstance& add_header(const HeaderSpec& spec);

  [[nodiscard]] bool has(const std::string& header) const;
  [[nodiscard]] HeaderInstance* find(const std::string& header);
  [[nodiscard]] const HeaderInstance* find(const std::string& header) const;

  /// Read through a slot; nullopt when its header is absent or invalid.
  [[nodiscard]] std::optional<std::uint64_t> read(const FieldSlot& slot) const;
  /// Write through a slot (masked to the field's width); false when its
  /// header is absent or invalid.
  bool write(const FieldSlot& slot, std::uint64_t value);

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

  /// The parser that produced this packet: FieldSlots resolved against its
  /// schema apply. Null for a hand-built packet.
  [[nodiscard]] const ParserProgram* parser() const { return parser_; }

  /// Re-serialize valid headers (in order) followed by the payload.
  [[nodiscard]] Bytes deparse() const;

 private:
  friend class ParserProgram;
  HeaderInstance& add_instance(const HeaderSpec& spec,
                               const HeaderFormat* format);
  void rebase();  // point every FieldValues view into values_ again

  const ParserProgram* parser_ = nullptr;
  std::vector<std::uint64_t> values_;  // every header's fields, flat
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

}  // namespace pera::dataplane
