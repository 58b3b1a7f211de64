#include "copland/evidence.h"

#include <algorithm>
#include <stdexcept>

namespace pera::copland {

using crypto::Bytes;
using crypto::BytesView;
using crypto::Digest;

namespace {
std::shared_ptr<Evidence> make(EvidenceKind k) {
  auto e = std::make_shared<Evidence>();
  e->kind = k;
  return e;
}

void encode_rec(const EvidencePtr& e, Bytes& out) {
  if (!e) throw std::invalid_argument("evidence encode: null node");
  out.push_back(static_cast<std::uint8_t>(e->kind));
  switch (e->kind) {
    case EvidenceKind::kEmpty:
      return;
    case EvidenceKind::kMeasurement:
      crypto::append_str(out, e->asp);
      crypto::append_str(out, e->place);
      crypto::append_str(out, e->target);
      crypto::append(out, e->value);
      crypto::append_str(out, e->claim);
      return;
    case EvidenceKind::kNonce:
      crypto::append(out, e->nonce.value);
      return;
    case EvidenceKind::kSignature: {
      crypto::append_str(out, e->place);
      const Bytes sig = e->sig.serialize();
      crypto::append_blob(out, BytesView{sig.data(), sig.size()});
      encode_rec(e->child, out);
      return;
    }
    case EvidenceKind::kHashed:
      crypto::append_str(out, e->place);
      crypto::append(out, e->hash_value);
      return;
    case EvidenceKind::kSeq:
    case EvidenceKind::kPar:
      encode_rec(e->left, out);
      encode_rec(e->right, out);
      return;
    case EvidenceKind::kFuncOut:
      crypto::append_str(out, e->func);
      crypto::append_str(out, e->place);
      crypto::append_blob(out, BytesView{e->output.data(), e->output.size()});
      encode_rec(e->child, out);
      return;
  }
  throw std::invalid_argument("evidence encode: unknown kind");
}

// `depth` counts the nodes on the path from the root to this one.
EvidencePtr decode_rec(crypto::ByteReader& r, std::size_t depth) {
  if (depth > kMaxEvidenceDepth) r.fail("nesting exceeds depth budget");
  const auto kind = static_cast<EvidenceKind>(r.u8());
  switch (kind) {
    case EvidenceKind::kEmpty:
      return Evidence::empty();
    case EvidenceKind::kMeasurement: {
      auto e = make(EvidenceKind::kMeasurement);
      e->asp = r.str();
      e->place = r.str();
      e->target = r.str();
      e->value = r.digest();
      e->claim = r.str();
      return e;
    }
    case EvidenceKind::kNonce: {
      auto e = make(EvidenceKind::kNonce);
      e->nonce.value = r.digest();
      return e;
    }
    case EvidenceKind::kSignature: {
      auto e = make(EvidenceKind::kSignature);
      e->place = r.str();
      e->sig = crypto::Signature::deserialize(r.blob());
      e->child = decode_rec(r, depth + 1);
      return e;
    }
    case EvidenceKind::kHashed: {
      auto e = make(EvidenceKind::kHashed);
      e->place = r.str();
      e->hash_value = r.digest();
      return e;
    }
    case EvidenceKind::kSeq:
    case EvidenceKind::kPar: {
      auto e = make(kind);
      e->left = decode_rec(r, depth + 1);
      e->right = decode_rec(r, depth + 1);
      return e;
    }
    case EvidenceKind::kFuncOut: {
      auto e = make(EvidenceKind::kFuncOut);
      e->func = r.str();
      e->place = r.str();
      const BytesView out = r.blob();
      e->output.assign(out.begin(), out.end());
      e->child = decode_rec(r, depth + 1);
      return e;
    }
  }
  r.fail("unknown kind byte");
}

}  // namespace

EvidencePtr Evidence::empty() {
  static const EvidencePtr kEmptyInstance = make(EvidenceKind::kEmpty);
  return kEmptyInstance;
}

EvidencePtr Evidence::measurement(std::string asp, std::string place,
                                  std::string target, Digest value,
                                  std::string claim) {
  auto e = make(EvidenceKind::kMeasurement);
  e->asp = std::move(asp);
  e->place = std::move(place);
  e->target = std::move(target);
  e->value = value;
  e->claim = std::move(claim);
  return e;
}

EvidencePtr Evidence::nonce_ev(crypto::Nonce n) {
  auto e = make(EvidenceKind::kNonce);
  e->nonce = n;
  return e;
}

EvidencePtr Evidence::signature(std::string place, EvidencePtr child,
                                crypto::Signature sig) {
  auto e = make(EvidenceKind::kSignature);
  e->place = std::move(place);
  e->child = std::move(child);
  e->sig = std::move(sig);
  return e;
}

EvidencePtr Evidence::hashed(std::string place, Digest value) {
  auto e = make(EvidenceKind::kHashed);
  e->place = std::move(place);
  e->hash_value = value;
  return e;
}

EvidencePtr Evidence::seq(EvidencePtr l, EvidencePtr r) {
  auto e = make(EvidenceKind::kSeq);
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

EvidencePtr Evidence::par(EvidencePtr l, EvidencePtr r) {
  auto e = make(EvidenceKind::kPar);
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

EvidencePtr Evidence::func_out(std::string func, std::string place,
                               EvidencePtr input, Bytes output) {
  auto e = make(EvidenceKind::kFuncOut);
  e->func = std::move(func);
  e->place = std::move(place);
  e->child = std::move(input);
  e->output = std::move(output);
  return e;
}

EvidencePtr Evidence::extend(const EvidencePtr& acc, EvidencePtr item) {
  if (!acc || acc->kind == EvidenceKind::kEmpty) return item;
  return seq(acc, std::move(item));
}

Bytes encode(const EvidencePtr& e) {
  Bytes out;
  encode_rec(e, out);
  return out;
}

EvidencePtr decode(BytesView data) {
  crypto::ByteReader r(data, "evidence decode");
  EvidencePtr e = decode_rec(r, 1);
  r.finish();
  return e;
}

Digest digest(const EvidencePtr& e) {
  const Bytes enc = encode(e);
  return crypto::sha256(BytesView{enc.data(), enc.size()});
}

std::size_t wire_size(const EvidencePtr& e) { return encode(e).size(); }

std::size_t node_count(const EvidencePtr& e) {
  if (!e) return 0;
  return 1 + node_count(e->child) + node_count(e->left) + node_count(e->right);
}

namespace {
void describe_rec(const EvidencePtr& e, int indent, std::string& out) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  switch (e->kind) {
    case EvidenceKind::kEmpty:
      out += pad + "(empty)\n";
      return;
    case EvidenceKind::kMeasurement:
      out += pad + "measurement: " + e->asp + "@" + e->place + " measured " +
             e->target + " = " + e->value.short_hex();
      if (!e->claim.empty()) out += " [" + e->claim + "]";
      out += '\n';
      return;
    case EvidenceKind::kNonce:
      out += pad + "nonce: " + e->nonce.value.short_hex() + "\n";
      return;
    case EvidenceKind::kSignature:
      out += pad + "signed by " + e->place + " (" +
             crypto::to_string(e->sig.scheme) + ", " +
             std::to_string(e->sig.wire_size()) + " B):\n";
      describe_rec(e->child, indent + 1, out);
      return;
    case EvidenceKind::kHashed:
      out += pad + "hashed at " + e->place + ": " + e->hash_value.short_hex() +
             "\n";
      return;
    case EvidenceKind::kSeq:
      out += pad + "seq:\n";
      describe_rec(e->left, indent + 1, out);
      describe_rec(e->right, indent + 1, out);
      return;
    case EvidenceKind::kPar:
      out += pad + "par:\n";
      describe_rec(e->left, indent + 1, out);
      describe_rec(e->right, indent + 1, out);
      return;
    case EvidenceKind::kFuncOut:
      out += pad + "func " + e->func + "@" + e->place + " (" +
             std::to_string(e->output.size()) + " B out):\n";
      describe_rec(e->child, indent + 1, out);
      return;
  }
}
}  // namespace

std::string describe(const EvidencePtr& e) {
  std::string out;
  describe_rec(e, 0, out);
  return out;
}

bool equal(const EvidencePtr& a, const EvidencePtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return encode(a) == encode(b);
}

namespace {
template <typename Pred>
void collect(const EvidencePtr& e, std::vector<const Evidence*>& out,
             Pred pred) {
  if (!e) return;
  if (pred(*e)) out.push_back(e.get());
  collect(e->child, out, pred);
  collect(e->left, out, pred);
  collect(e->right, out, pred);
}
}  // namespace

std::vector<const Evidence*> measurements_of(const EvidencePtr& e) {
  std::vector<const Evidence*> out;
  collect(e, out, [](const Evidence& n) {
    return n.kind == EvidenceKind::kMeasurement;
  });
  return out;
}

std::vector<const Evidence*> signatures_of(const EvidencePtr& e) {
  std::vector<const Evidence*> out;
  collect(e, out, [](const Evidence& n) {
    return n.kind == EvidenceKind::kSignature;
  });
  return out;
}

std::vector<const Evidence*> nonces_of(const EvidencePtr& e) {
  std::vector<const Evidence*> out;
  collect(e, out, [](const Evidence& n) {
    return n.kind == EvidenceKind::kNonce;
  });
  return out;
}

EvidencePtr fold_par(std::vector<EvidencePtr> items) {
  if (items.empty()) return Evidence::empty();
  while (items.size() > 1) {
    std::vector<EvidencePtr> next;
    next.reserve((items.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < items.size(); i += 2) {
      next.push_back(Evidence::par(items[i], items[i + 1]));
    }
    if (items.size() % 2 == 1) next.push_back(items.back());
    items = std::move(next);
  }
  return items.front();
}

EvidencePtr fold_par_canonical(std::vector<EvidencePtr> items) {
  std::sort(items.begin(), items.end(),
            [](const EvidencePtr& a, const EvidencePtr& b) {
              return encode(a) < encode(b);
            });
  return fold_par(std::move(items));
}

}  // namespace pera::copland
