#include "copland/testbed.h"

#include <algorithm>
#include <stdexcept>

#include "copland/pretty.h"

namespace pera::copland {

using crypto::Digest;

void TestbedPlatform::install(const std::string& place,
                              const std::string& name,
                              const std::string& content) {
  const ComponentId id{place, name};
  content_[id] = content;
  shadow_content_[id] = content;
  golden_[id] = crypto::sha256(content);
}

void TestbedPlatform::corrupt(const std::string& place,
                              const std::string& name,
                              const std::string& content) {
  const ComponentId id{place, name};
  if (!content_.contains(id)) {
    throw std::invalid_argument("corrupt: no such component " + place + "/" +
                                name);
  }
  content_[id] = content;
}

void TestbedPlatform::repair(const std::string& place,
                             const std::string& name) {
  const ComponentId id{place, name};
  const auto it = golden_.find(id);
  if (it == golden_.end()) {
    throw std::invalid_argument("repair: no golden value for " + place + "/" +
                                name);
  }
  // Restore by re-deriving content whose hash matches: we keep the original
  // content around under a shadow key instead of inverting the hash.
  const auto shadow = shadow_content_.find(id);
  if (shadow != shadow_content_.end()) {
    content_[id] = shadow->second;
  }
}

bool TestbedPlatform::is_corrupt(const std::string& place,
                                 const std::string& name) const {
  const ComponentId id{place, name};
  const auto c = content_.find(id);
  const auto g = golden_.find(id);
  if (c == content_.end() || g == golden_.end()) return false;
  return crypto::sha256(c->second) != g->second;
}

std::optional<Digest> TestbedPlatform::golden(const std::string& place,
                                              const std::string& name) const {
  const auto it = golden_.find(ComponentId{place, name});
  if (it == golden_.end()) return std::nullopt;
  return it->second;
}

void TestbedPlatform::set_test(const std::string& place,
                               const std::string& name, bool value) {
  tests_[ComponentId{place, name}] = value;
}

void TestbedPlatform::register_func(const std::string& name,
                                    FuncHandler handler) {
  funcs_[name] = std::move(handler);
}

MeasurementResult TestbedPlatform::measure(const std::string& place,
                                           const std::string& asp,
                                           const std::string& target) {
  // A corrupt measurer lies: it reports the golden value of its target
  // regardless of the target's actual content. This is exactly the threat
  // the §4.2 bank example worries about — a tampered bmon vouching for
  // malicious browser extensions.
  for (const auto& [cid, content] : content_) {
    if (cid.second == asp && is_corrupt(cid.first, cid.second)) {
      const auto g = golden_.find(ComponentId{place, target});
      MeasurementResult lie;
      lie.value = g != golden_.end() ? g->second
                                     : crypto::sha256("missing:" + place +
                                                      "/" + target);
      lie.claim = asp + " hashed " + target;
      return lie;
    }
  }

  const ComponentId id{place, target};
  const auto it = content_.find(id);
  MeasurementResult r;
  if (it != content_.end()) {
    r.value = crypto::sha256(it->second);
    r.claim = asp + " hashed " + target;
  } else {
    // Unknown target: measure the name itself — appraisal will flag it as
    // an unknown component unless a golden value exists.
    r.value = crypto::sha256("missing:" + place + "/" + target);
    r.claim = asp + " found no component " + target;
  }
  return r;
}

crypto::Signature TestbedPlatform::sign(const std::string& place,
                                        const Digest& d) {
  crypto::Signer* s = keys_.signer_for(place);
  if (s == nullptr) {
    s = &keys_.provision_hmac(place);
  }
  return s->sign(d);
}

EvidencePtr TestbedPlatform::call(Evaluator& ev, const std::string& place,
                                  const std::string& func,
                                  const std::vector<TermPtr>& args,
                                  const EvidencePtr& input) {
  const auto it = funcs_.find(func);
  if (it == funcs_.end()) {
    throw EvalError("no handler registered for function '" + func + "'");
  }
  return it->second(ev, place, args, input);
}

bool TestbedPlatform::test(const std::string& place, const std::string& name) {
  const auto it = tests_.find(ComponentId{place, name});
  return it == tests_.end() ? true : it->second;
}

std::optional<EvidencePtr> TestbedPlatform::stored(
    const crypto::Nonce& n) const {
  const auto it = store_.find(n.value);
  if (it == store_.end()) return std::nullopt;
  return it->second;
}

namespace {

// The first nonce in the evidence (pre-order), if any.
std::optional<crypto::Nonce> find_nonce(const EvidencePtr& e) {
  const std::vector<const Evidence*> nonces = nonces_of(e);
  if (nonces.empty()) return std::nullopt;
  return nonces.front()->nonce;
}

}  // namespace

void TestbedPlatform::install_default_funcs(crypto::NonceRegistry& registry) {
  // attest(T1, ..., Tk): evaluate each term argument at the current place
  // and fold the results together in order.
  register_func("attest", [](Evaluator& ev, const std::string& place,
                             const std::vector<TermPtr>& args,
                             const EvidencePtr& input) {
    EvidencePtr acc = input;
    for (const auto& arg : args) {
      acc = Evidence::extend(acc, ev.eval(arg, place, Evidence::empty()));
    }
    return acc;
  });

  // appraise: checks the incoming evidence against this platform's golden
  // values and summarizes the verdict as function output.
  register_func("appraise", [this](Evaluator&, const std::string& place,
                                   const std::vector<TermPtr>&,
                                   const EvidencePtr& input) {
    const AppraisalResult res = pera::copland::appraise(input, &golden_, keys_);
    crypto::Bytes verdict;
    verdict.push_back(res.ok ? 1 : 0);
    return Evidence::func_out("appraise", place, input, std::move(verdict));
  });

  // certify / certify(n): bind a nonce into the evidence. With an argument
  // the nonce is looked up from the registry-observed set via the evidence.
  register_func("certify", [&registry](Evaluator&, const std::string& place,
                                       const std::vector<TermPtr>&,
                                       const EvidencePtr& input) {
    std::optional<crypto::Nonce> n = find_nonce(input);
    crypto::Bytes out;
    if (n) {
      registry.observe(*n);
      crypto::append(out, n->value);
    }
    return Evidence::func_out("certify", place, input, std::move(out));
  });

  // store / store(n): persist evidence keyed by the nonce it contains (or
  // by its own digest when no nonce is present).
  register_func("store", [this](Evaluator&, const std::string& place,
                                const std::vector<TermPtr>&,
                                const EvidencePtr& input) {
    std::optional<crypto::Nonce> n = find_nonce(input);
    const Digest key = n ? n->value : digest(input);
    store_[key] = input;
    return Evidence::func_out("store", place, input, {});
  });

  // retrieve(n): look up stored evidence. The nonce must arrive as input
  // evidence (the relying party binds it in).
  register_func("retrieve", [this](Evaluator&, const std::string& place,
                                   const std::vector<TermPtr>&,
                                   const EvidencePtr& input) {
    std::optional<crypto::Nonce> n = find_nonce(input);
    if (!n) throw EvalError("retrieve: no nonce in input evidence");
    const auto it = store_.find(n->value);
    if (it == store_.end()) {
      return Evidence::func_out("retrieve", place, input, {});
    }
    return it->second;
  });
}

std::string to_string(AppraisalFinding::Kind k) {
  switch (k) {
    case AppraisalFinding::Kind::kBadMeasurement: return "bad-measurement";
    case AppraisalFinding::Kind::kUnknownComponent: return "unknown-component";
    case AppraisalFinding::Kind::kBadSignature: return "bad-signature";
    case AppraisalFinding::Kind::kUnknownSigner: return "unknown-signer";
    case AppraisalFinding::Kind::kMissingNonce: return "missing-nonce";
    case AppraisalFinding::Kind::kStaleNonce: return "stale-nonce";
    case AppraisalFinding::Kind::kMalformed: return "malformed";
  }
  return "?";
}

bool AppraisalReport::measured(std::string_view place,
                               std::string_view target) const {
  return std::any_of(measurements.begin(), measurements.end(),
                     [&](const Measurement& m) {
                       return m.place == place && m.target == target;
                     });
}

bool AppraisalReport::signed_place(std::string_view place) const {
  return std::any_of(hops.begin(), hops.end(),
                     [&](const Hop& h) {
                       return h.is_signature && h.place == place;
                     }) ||
         std::any_of(measurements.begin(), measurements.end(),
                     [&](const Measurement& m) {
                       return m.place == place && hops[m.hop].is_signature;
                     });
}

namespace {

// The appraisal walk: one bounded pass over the encoding, in pre-order,
// reading exactly what decode() reads and failing exactly where it fails.
class AppraisalWalk {
 public:
  AppraisalWalk(crypto::BytesView input, const Goldens* goldens,
                const crypto::VerifierLookup& keys,
                const crypto::Nonce& round_nonce, std::size_t max_depth,
                AppraisalReport* report)
      : input_(input),
        r_(input, "evidence decode"),
        goldens_(goldens),
        keys_(keys),
        round_nonce_(round_nonce),
        max_depth_(max_depth),
        report_(report) {}

  AppraisalResult run() {
    node(1);
    r_.finish();
    if (!round_nonce_.value.is_zero() && !nonce_seen_) {
      res_.add({AppraisalFinding::Kind::kMissingNonce, "",
                "expected nonce " + round_nonce_.value.short_hex()});
    }
    // Unsigned at the top: the content is the whole term.
    if (static_cast<EvidenceKind>(input_[0]) != EvidenceKind::kSignature) {
      res_.content_digest = crypto::sha256(input_);
    }
    res_.decoded = true;
    return std::move(res_);
  }

 private:
  // `depth` counts the nodes on the path from the root to this one.
  void node(std::size_t depth) {
    if (depth > max_depth_) r_.fail("nesting exceeds depth budget");
    const auto kind = static_cast<EvidenceKind>(r_.u8());
    switch (kind) {
      case EvidenceKind::kEmpty:
        return;
      case EvidenceKind::kMeasurement: {
        (void)str();  // asp
        const std::string_view place = str();
        const std::string_view target = str();
        const Digest value = r_.digest();
        (void)str();  // claim
        if (goldens_ != nullptr) measurement(place, target, value);
        if (report_ != nullptr) report_measurement(place, target, value);
        return;
      }
      case EvidenceKind::kNonce: {
        const Digest nonce = r_.digest();
        nonce_seen_ = nonce == round_nonce_.value || nonce_seen_;
        if (report_ != nullptr) report_->nonces.push_back({nonce});
        return;
      }
      case EvidenceKind::kSignature: {
        const std::string_view place = str();
        const crypto::Signature sig = crypto::Signature::deserialize(r_.blob());
        // Pre-order: count it, and hold its finding's place, before the
        // child's findings.
        const bool top = res_.signatures_checked++ == 0;
        const std::size_t finding_at = res_.findings.size();
        const std::size_t first_measurement =
            report_ != nullptr ? report_->measurements.size() : 0;
        const std::size_t begin = offset();
        ++open_signatures_;
        node(depth + 1);
        --open_signatures_;
        const Digest content =
            crypto::sha256(input_.subspan(begin, offset() - begin));
        if (top) res_.content_digest = content;
        const bool ok = signature(place, sig, content, finding_at);
        if (report_ != nullptr) report_hop(place, ok, first_measurement);
        return;
      }
      case EvidenceKind::kHashed:
        (void)str();
        (void)r_.digest();
        return;
      case EvidenceKind::kSeq:
      case EvidenceKind::kPar:
        node(depth + 1);
        node(depth + 1);
        return;
      case EvidenceKind::kFuncOut:
        (void)str();  // func
        (void)str();  // place
        (void)r_.blob();
        node(depth + 1);
        return;
    }
    r_.fail("unknown kind byte");
  }

  void measurement(std::string_view place, std::string_view target,
                   const Digest& value) {
    ++res_.measurements_checked;
    const auto it = goldens_->find(ComponentLess::View{place, target});
    if (it == goldens_->end()) {
      res_.add({AppraisalFinding::Kind::kUnknownComponent, std::string(place),
                "no golden value for " + std::string(target)});
    } else if (it->second != value) {
      res_.add({AppraisalFinding::Kind::kBadMeasurement, std::string(place),
                std::string(target) + " measured " + value.short_hex() +
                    ", golden " + it->second.short_hex()});
    }
  }

  // Records a measurement. One no signature covers is a hop of its own;
  // a covered one waits for its innermost signature's hop (kPending).
  void report_measurement(std::string_view place, std::string_view target,
                          const Digest& value) {
    std::size_t hop = kPending;
    if (open_signatures_ == 0) {
      hop = report_->hops.size();
      report_->hops.push_back({std::string(place), false, false});
    }
    report_->measurements.push_back(
        {std::string(place), std::string(target), value, hop});
  }

  // Emits a signature's hop after its child's (post-order) and gives it
  // the measurements under it that no inner signature has claimed.
  void report_hop(std::string_view place, bool ok,
                  std::size_t first_measurement) {
    const std::size_t hop = report_->hops.size();
    report_->hops.push_back({std::string(place), true, ok});
    for (std::size_t i = first_measurement; i < report_->measurements.size();
         ++i) {
      if (report_->measurements[i].hop == kPending) {
        report_->measurements[i].hop = hop;
      }
    }
  }

  // Whether the signature verified; records the finding when not.
  bool signature(std::string_view place, const crypto::Signature& sig,
                 const Digest& content, std::size_t finding_at) {
    const crypto::Verifier* v = keys_.verifier_by_key_id(sig.key_id);
    AppraisalFinding f;
    if (v == nullptr) {
      f = {AppraisalFinding::Kind::kUnknownSigner, std::string(place),
           "key id " + sig.key_id.short_hex()};
    } else if (!crypto::verify_any(*v, content, sig)) {
      f = {AppraisalFinding::Kind::kBadSignature, std::string(place),
           "signature by " + std::string(place) + " does not verify"};
    } else {
      return true;
    }
    res_.ok = false;
    res_.findings.insert(
        res_.findings.begin() + static_cast<std::ptrdiff_t>(finding_at),
        std::move(f));
    return false;
  }

  std::string_view str() {
    const crypto::BytesView b = r_.blob();
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }

  std::size_t offset() const { return input_.size() - r_.remaining(); }

  static constexpr std::size_t kPending = static_cast<std::size_t>(-1);

  crypto::BytesView input_;
  crypto::ByteReader r_;
  const Goldens* goldens_;
  const crypto::VerifierLookup& keys_;
  const crypto::Nonce& round_nonce_;
  std::size_t max_depth_;
  AppraisalReport* report_;
  AppraisalResult res_;
  bool nonce_seen_ = false;
  std::size_t open_signatures_ = 0;
};

AppraisalResult walk(crypto::BytesView evidence, const Goldens* goldens,
                     const crypto::VerifierLookup& keys,
                     const crypto::Nonce& round_nonce, std::size_t max_depth,
                     AppraisalReport* report) {
  if (report != nullptr) *report = {};
  try {
    return AppraisalWalk(evidence, goldens, keys, round_nonce, max_depth,
                         report)
        .run();
  } catch (const std::invalid_argument& e) {
    if (report != nullptr) *report = {};
    AppraisalResult res;
    res.add({AppraisalFinding::Kind::kMalformed, "", e.what()});
    return res;
  }
}

}  // namespace

AppraisalResult appraise(crypto::BytesView evidence, const Goldens* goldens,
                         const crypto::VerifierLookup& keys,
                         const crypto::Nonce& round_nonce,
                         AppraisalReport* report) {
  return walk(evidence, goldens, keys, round_nonce, kMaxEvidenceDepth, report);
}

AppraisalResult appraise(const EvidencePtr& evidence, const Goldens* goldens,
                         const crypto::VerifierLookup& keys,
                         const crypto::Nonce& round_nonce,
                         AppraisalReport* report) {
  if (!evidence) {
    return appraise(crypto::BytesView{}, goldens, keys, round_nonce, report);
  }
  const crypto::Bytes bytes = encode(evidence);
  return walk(bytes, goldens, keys, round_nonce, static_cast<std::size_t>(-1),
              report);
}

}  // namespace pera::copland
