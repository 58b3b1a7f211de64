#include "dataplane/packet.h"

#include <algorithm>
#include <stdexcept>

namespace pera::dataplane {

namespace {

std::uint64_t width_mask(unsigned bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

// A field is at most 64 bits wide and starts at most 7 bits into its first
// byte, so it lies inside a big-endian window of at most 9 bytes.
using Window = unsigned __int128;

struct FieldWindow {
  std::size_t first;   // index of the field's first byte
  unsigned span;       // bytes the field touches, 0..9
  unsigned shift;      // bits below the field in the window
};

FieldWindow window_of(const HeaderSpec& spec, const FieldSpec& field,
                      std::size_t bit_pos) {
  if (field.bits > 64) {
    throw std::invalid_argument("header " + spec.name + ": field " +
                                field.name + " is wider than 64 bits");
  }
  const unsigned lead = static_cast<unsigned>(bit_pos % 8);
  const unsigned span = (lead + field.bits + 7) / 8;
  return {bit_pos / 8, span, span * 8 - lead - field.bits};
}

// ORs the packed header into `out`, which must hold spec.byte_width()
// zero bytes. Bits of a value above its field's width are dropped.
void pack_into(const HeaderSpec& spec,
               const std::vector<std::uint64_t>& values, std::uint8_t* out) {
  if (values.size() != spec.fields.size()) {
    throw std::invalid_argument("pack_header: value count mismatch");
  }
  std::size_t bit_pos = 0;
  for (std::size_t i = 0; i < spec.fields.size(); ++i) {
    const FieldSpec& field = spec.fields[i];
    const FieldWindow fw = window_of(spec, field, bit_pos);
    const Window w = static_cast<Window>(values[i] & width_mask(field.bits))
                     << fw.shift;
    for (unsigned k = 0; k < fw.span; ++k) {
      out[fw.first + k] |=
          static_cast<std::uint8_t>(w >> (8 * (fw.span - 1 - k)));
    }
    bit_pos += field.bits;
  }
}

}  // namespace

std::uint64_t HeaderInstance::get(const std::string& field) const {
  const int idx = spec->field_index(field);
  if (idx < 0) {
    throw std::out_of_range("no field '" + field + "' in header " + spec->name);
  }
  return values[static_cast<std::size_t>(idx)];
}

void HeaderInstance::set(const std::string& field, std::uint64_t value) {
  const int idx = spec->field_index(field);
  if (idx < 0) {
    throw std::out_of_range("no field '" + field + "' in header " + spec->name);
  }
  values[static_cast<std::size_t>(idx)] =
      value & width_mask(spec->fields[static_cast<std::size_t>(idx)].bits);
}

HeaderInstance& ParsedPacket::add_header(const HeaderSpec& spec) {
  HeaderInstance h;
  h.spec = &spec;
  h.valid = true;
  h.values.assign(spec.fields.size(), 0);
  headers_.push_back(std::move(h));
  return headers_.back();
}

bool ParsedPacket::has(const std::string& header) const {
  const HeaderInstance* h = find(header);
  return h != nullptr && h->valid;
}

HeaderInstance* ParsedPacket::find(const std::string& header) {
  for (auto& h : headers_) {
    if (h.spec->name == header) return &h;
  }
  return nullptr;
}

const HeaderInstance* ParsedPacket::find(const std::string& header) const {
  for (const auto& h : headers_) {
    if (h.spec->name == header) return &h;
  }
  return nullptr;
}

std::uint64_t ParsedPacket::get(const FieldRef& ref) const {
  const HeaderInstance* h = find(ref.header);
  if (h == nullptr || !h->valid) {
    throw std::out_of_range("header '" + ref.header + "' not present");
  }
  return h->get(ref.field);
}

void ParsedPacket::set(const FieldRef& ref, std::uint64_t value) {
  HeaderInstance* h = find(ref.header);
  if (h == nullptr || !h->valid) {
    throw std::out_of_range("header '" + ref.header + "' not present");
  }
  h->set(ref.field, value);
}

Bytes ParsedPacket::deparse() const {
  std::size_t size = payload.size();
  for (const auto& h : headers_) {
    if (h.valid) size += h.spec->byte_width();
  }
  Bytes out(size, 0);
  std::size_t at = 0;
  for (const auto& h : headers_) {
    if (!h.valid) continue;
    pack_into(*h.spec, h.values, out.data() + at);
    at += h.spec->byte_width();
  }
  std::copy(payload.begin(), payload.end(),
            out.begin() + static_cast<std::ptrdiff_t>(at));
  return out;
}

Bytes pack_header(const HeaderSpec& spec,
                  const std::vector<std::uint64_t>& values) {
  Bytes out(spec.byte_width(), 0);
  pack_into(spec, values, out.data());
  return out;
}

void unpack_header(const HeaderSpec& spec, BytesView data,
                   std::uint64_t* values) {
  if (data.size() < spec.byte_width()) {
    throw std::invalid_argument("unpack_header: buffer shorter than header " +
                                spec.name);
  }
  std::size_t bit_pos = 0;
  for (std::size_t i = 0; i < spec.fields.size(); ++i) {
    const FieldSpec& field = spec.fields[i];
    const FieldWindow fw = window_of(spec, field, bit_pos);
    Window w = 0;
    for (unsigned k = 0; k < fw.span; ++k) w = (w << 8) | data[fw.first + k];
    values[i] = static_cast<std::uint64_t>(w >> fw.shift) &
                width_mask(field.bits);
    bit_pos += field.bits;
  }
}

std::vector<std::uint64_t> unpack_header(const HeaderSpec& spec,
                                         BytesView data) {
  std::vector<std::uint64_t> values(spec.fields.size(), 0);
  unpack_header(spec, data, values.data());
  return values;
}

}  // namespace pera::dataplane
