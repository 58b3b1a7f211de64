#include "dataplane/packet.h"

#include <algorithm>
#include <stdexcept>

namespace pera::dataplane {

namespace {

std::uint64_t width_mask(unsigned bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

using Window = unsigned __int128;

std::size_t field_index_or_throw(const HeaderSpec& spec,
                                 const std::string& field) {
  const int idx = spec.field_index(field);
  if (idx < 0) {
    throw std::out_of_range("no field '" + field + "' in header " + spec.name);
  }
  return static_cast<std::size_t>(idx);
}

// The first instance of the header `spec` (by address), if it is valid.
template <typename Headers>
auto* first_valid(Headers& headers, const HeaderSpec* spec) {
  for (auto& h : headers) {
    if (h.spec == spec) return h.valid ? &h : nullptr;
  }
  return static_cast<decltype(&headers[0])>(nullptr);
}

}  // namespace

HeaderFormat::HeaderFormat(HeaderSpec spec) : spec_(std::move(spec)) {
  windows_.reserve(spec_.fields.size());
  std::size_t bit_pos = 0;
  for (const FieldSpec& field : spec_.fields) {
    if (field.bits > 64) {
      throw std::invalid_argument("header " + spec_.name + ": field " +
                                  field.name + " is wider than 64 bits");
    }
    const unsigned lead = static_cast<unsigned>(bit_pos % 8);
    const unsigned span = (lead + field.bits + 7) / 8;
    windows_.push_back({static_cast<std::uint32_t>(bit_pos / 8), span,
                        span * 8 - lead - field.bits,
                        width_mask(field.bits)});
    bit_pos += field.bits;
  }
  bytes_ = (bit_pos + 7) / 8;
}

namespace {

// The big-endian window of `span` bytes at `data`, in the narrowest type
// that holds it (a field spans at most 9 bytes).
template <typename W>
W load_window(const std::uint8_t* data, unsigned span) {
  W w = 0;
  for (unsigned k = 0; k < span; ++k) w = (w << 8) | data[k];
  return w;
}

template <typename W>
void store_window(W w, unsigned span, std::uint8_t* out) {
  for (unsigned k = span; k-- > 0; w >>= 8) {
    out[k] |= static_cast<std::uint8_t>(w);
  }
}

}  // namespace

void HeaderFormat::unpack(const std::uint8_t* data,
                          std::uint64_t* values) const {
  for (const FieldWindow& fw : windows_) {
    const std::uint8_t* at = data + fw.first;
    const std::uint64_t v =
        fw.span <= 8
            ? load_window<std::uint64_t>(at, fw.span) >> fw.shift
            : static_cast<std::uint64_t>(load_window<Window>(at, fw.span) >>
                                         fw.shift);
    *values++ = v & fw.mask;
  }
}

void HeaderFormat::pack(const std::uint64_t* values, std::uint8_t* out) const {
  for (const FieldWindow& fw : windows_) {
    const std::uint64_t v = *values++ & fw.mask;
    if (fw.span <= 8) {
      store_window(v << fw.shift, fw.span, out + fw.first);
    } else {
      store_window(static_cast<Window>(v) << fw.shift, fw.span, out + fw.first);
    }
  }
}

FieldValues& FieldValues::operator=(const std::vector<std::uint64_t>& values) {
  if (values.size() != size_) {
    throw std::invalid_argument("header values: count mismatch");
  }
  std::copy(values.begin(), values.end(), data_);
  return *this;
}

bool operator==(const FieldValues& a, const std::vector<std::uint64_t>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

std::uint64_t HeaderInstance::get(const std::string& field) const {
  return values[field_index_or_throw(*spec, field)];
}

void HeaderInstance::set(const std::string& field, std::uint64_t value) {
  const std::size_t i = field_index_or_throw(*spec, field);
  values[i] = value & width_mask(spec->fields[i].bits);
}

FieldSlot resolve_field(const FieldRef& ref, const HeaderSpec* header) {
  using Kind = FieldSlot::Kind;
  FieldSlot slot;
  if (ref.header == "meta") {
    if (ref.field == "ingress_port") {
      slot.kind = Kind::kIngressPort;
    } else if (ref.field == "egress_port") {
      slot.kind = Kind::kEgressPort;
    } else if (ref.field == "packet_id") {
      slot.kind = Kind::kPacketId;
    } else if (ref.field == "user0") {
      slot.kind = Kind::kUser0;
    } else if (ref.field == "user1") {
      slot.kind = Kind::kUser1;
    } else {
      throw std::invalid_argument("unknown metadata field meta." + ref.field);
    }
    return slot;
  }
  slot.header = header;
  if (header != nullptr) {
    slot.field =
        static_cast<std::uint32_t>(field_index_or_throw(*header, ref.field));
    slot.mask = width_mask(header->fields[slot.field].bits);
  }
  return slot;
}

ParsedPacket::ParsedPacket(const ParsedPacket& other)
    : meta(other.meta),
      payload(other.payload),
      parser_(other.parser_),
      values_(other.values_),
      headers_(other.headers_) {
  rebase();
}

ParsedPacket& ParsedPacket::operator=(const ParsedPacket& other) {
  if (this != &other) {
    ParsedPacket copy(other);
    *this = std::move(copy);
  }
  return *this;
}

void ParsedPacket::rebase() {
  for (HeaderInstance& h : headers_) {
    h.values.data_ = values_.data() + h.offset_;
  }
}

HeaderInstance& ParsedPacket::add_instance(const HeaderSpec& spec,
                                           const HeaderFormat* format) {
  const std::uint64_t* before = values_.data();
  HeaderInstance& h = headers_.emplace_back();
  h.spec = &spec;
  h.valid = true;
  h.format_ = format;
  h.offset_ = values_.size();
  h.values.size_ = spec.fields.size();
  values_.resize(values_.size() + spec.fields.size(), 0);
  if (values_.data() != before) {
    rebase();
  } else {
    h.values.data_ = values_.data() + h.offset_;
  }
  return h;
}

HeaderInstance& ParsedPacket::add_header(const HeaderSpec& spec) {
  return add_instance(spec, nullptr);
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

std::optional<std::uint64_t> ParsedPacket::read(const FieldSlot& slot) const {
  using Kind = FieldSlot::Kind;
  switch (slot.kind) {
    case Kind::kHeader: {
      const HeaderInstance* h = first_valid(headers_, slot.header);
      if (h == nullptr) return std::nullopt;
      return h->values[slot.field];
    }
    case Kind::kIngressPort: return meta.ingress_port;
    case Kind::kEgressPort: return meta.egress_port;
    case Kind::kPacketId: return meta.packet_id;
    case Kind::kUser0: return meta.user0;
    case Kind::kUser1: return meta.user1;
  }
  return std::nullopt;
}

bool ParsedPacket::write(const FieldSlot& slot, std::uint64_t value) {
  using Kind = FieldSlot::Kind;
  switch (slot.kind) {
    case Kind::kHeader: {
      HeaderInstance* h = first_valid(headers_, slot.header);
      if (h == nullptr) return false;
      h->values[slot.field] = value & slot.mask;
      return true;
    }
    case Kind::kIngressPort:
      meta.ingress_port = static_cast<std::uint32_t>(value);
      return true;
    case Kind::kEgressPort:
      meta.egress_port = static_cast<std::uint32_t>(value);
      return true;
    case Kind::kPacketId: meta.packet_id = value; return true;
    case Kind::kUser0: meta.user0 = value; return true;
    case Kind::kUser1: meta.user1 = value; return true;
  }
  return false;
}

std::uint64_t ParsedPacket::get(const FieldRef& ref) const {
  const HeaderInstance* h = find(ref.header);
  const auto value = read(resolve_field(ref, h ? h->spec : nullptr));
  if (!value) {
    throw std::out_of_range("header '" + ref.header + "' not present");
  }
  return *value;
}

void ParsedPacket::set(const FieldRef& ref, std::uint64_t value) {
  const HeaderInstance* h = find(ref.header);
  if (!write(resolve_field(ref, h ? h->spec : nullptr), value)) {
    throw std::out_of_range("header '" + ref.header + "' not present");
  }
}

Bytes ParsedPacket::deparse() const {
  std::size_t size = payload.size();
  for (const auto& h : headers_) {
    if (!h.valid) continue;
    size += h.format_ != nullptr ? h.format_->byte_width()
                                 : h.spec->byte_width();
  }
  Bytes out(size, 0);
  std::size_t at = 0;
  for (const auto& h : headers_) {
    if (!h.valid) continue;
    if (h.format_ != nullptr) {
      h.format_->pack(h.values.data(), out.data() + at);
      at += h.format_->byte_width();
    } else {  // hand-built: resolve the spec now
      const HeaderFormat format(*h.spec);
      format.pack(h.values.data(), out.data() + at);
      at += format.byte_width();
    }
  }
  std::copy(payload.begin(), payload.end(),
            out.begin() + static_cast<std::ptrdiff_t>(at));
  return out;
}

Bytes pack_header(const HeaderSpec& spec,
                  const std::vector<std::uint64_t>& values) {
  if (values.size() != spec.fields.size()) {
    throw std::invalid_argument("pack_header: value count mismatch");
  }
  const HeaderFormat format(spec);
  Bytes out(format.byte_width(), 0);
  format.pack(values.data(), out.data());
  return out;
}

std::vector<std::uint64_t> unpack_header(const HeaderSpec& spec,
                                         BytesView data) {
  const HeaderFormat format(spec);
  if (data.size() < format.byte_width()) {
    throw std::invalid_argument("unpack_header: buffer shorter than header " +
                                spec.name);
  }
  std::vector<std::uint64_t> values(format.field_count(), 0);
  format.unpack(data.data(), values.data());
  return values;
}

}  // namespace pera::dataplane
