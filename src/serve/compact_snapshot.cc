#include "serve/compact_snapshot.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace taxorec {
namespace {

size_t PaddedStride(size_t dim) {
  return (dim + kCompactRowPad - 1) / kCompactRowPad * kCompactRowPad;
}

/// Narrows a double matrix into a padded float32 channel; the [dim, stride)
/// tail of every row stays at the zero AlignedBuffer initialized it to.
/// A non-empty `perm` reorders rows: channel row r holds m.row(perm[r]).
CompactChannel NarrowChannel(const Matrix& m,
                             const std::vector<uint32_t>& perm = {}) {
  CompactChannel ch;
  ch.rows = m.rows();
  ch.dim = m.cols();
  ch.stride = PaddedStride(ch.dim);
  ch.data = AlignedBuffer<float>(ch.rows * ch.stride);
  for (size_t r = 0; r < ch.rows; ++r) {
    const auto src = m.row(perm.empty() ? r : perm[r]);
    float* dst = ch.row(r);
    for (size_t c = 0; c < ch.dim; ++c) {
      dst[c] = static_cast<float>(src[c]);
    }
  }
  return ch;
}

double MaxAbs(const Matrix& m) {
  double max_abs = 0.0;
  for (double v : m.flat()) {
    const double a = std::abs(v);
    if (std::isfinite(a) && a > max_abs) max_abs = a;
  }
  return max_abs;
}

/// Symmetric quantization of one matrix with an externally chosen shared
/// scale: q = round(x / scale) clamped to [-127, 127]; padded tails zero.
/// A non-empty `perm` reorders rows exactly as in NarrowChannel.
QuantChannel QuantizeChannel(const Matrix& m, float scale,
                             const std::vector<uint32_t>& perm = {}) {
  QuantChannel ch;
  ch.rows = m.rows();
  ch.dim = m.cols();
  ch.stride = PaddedStride(ch.dim);
  ch.data = AlignedBuffer<int8_t>(ch.rows * ch.stride);
  const double inv = scale > 0.0f ? 1.0 / static_cast<double>(scale) : 0.0;
  for (size_t r = 0; r < ch.rows; ++r) {
    const auto src = m.row(perm.empty() ? r : perm[r]);
    int8_t* dst = ch.row(r);
    for (size_t c = 0; c < ch.dim; ++c) {
      double q = std::nearbyint(src[c] * inv);
      if (!std::isfinite(q)) q = 0.0;
      dst[c] = static_cast<int8_t>(std::clamp(q, -127.0, 127.0));
    }
  }
  return ch;
}

/// One shared scale per channel pair so squared distances and Lorentz
/// inner products dequantize with a single scale^2.
float SharedScale(const Matrix& a, const Matrix& b) {
  const double max_abs = std::max(MaxAbs(a), MaxAbs(b));
  return max_abs > 0.0 ? static_cast<float>(max_abs / 127.0) : 0.0f;
}

}  // namespace

const char* PrecisionTierName(PrecisionTier tier) {
  switch (tier) {
    case PrecisionTier::kDouble:
      return "double";
    case PrecisionTier::kFloat32:
      return "float32";
    case PrecisionTier::kInt8:
      return "int8";
  }
  return "unknown";
}

bool ParsePrecisionTier(const std::string& text, PrecisionTier* tier) {
  if (text == "double") {
    *tier = PrecisionTier::kDouble;
  } else if (text == "float32") {
    *tier = PrecisionTier::kFloat32;
  } else if (text == "int8") {
    *tier = PrecisionTier::kInt8;
  } else {
    return false;
  }
  return true;
}

CompactSnapshot CompactSnapshot::Build(const ScoringSnapshot& snapshot,
                                       bool with_int8,
                                       const std::vector<uint32_t>& item_perm) {
  TAXOREC_CHECK_MSG(snapshot.kernel != ScoreKernel::kVirtual,
                    "kVirtual views have no compact encoding");
  const Matrix& users = *snapshot.users;
  const Matrix& items = *snapshot.items;
  TAXOREC_CHECK(item_perm.empty() || item_perm.size() == items.rows());
  CompactSnapshot out;
  out.kernel = snapshot.kernel;
  out.num_users = users.rows();
  out.num_items = items.rows();
  out.users = NarrowChannel(users);
  out.items = NarrowChannel(items, item_perm);
  if (snapshot.has_tag_channel()) {
    out.users_tg = NarrowChannel(*snapshot.users_tg);
    out.items_tg = NarrowChannel(*snapshot.items_tg, item_perm);
    out.alpha.assign(snapshot.alpha.begin(), snapshot.alpha.end());
  }
  if (with_int8) {
    out.has_int8 = true;
    out.int8_scale_ir = SharedScale(users, items);
    out.users_q = QuantizeChannel(users, out.int8_scale_ir);
    out.items_q = QuantizeChannel(items, out.int8_scale_ir, item_perm);
    if (snapshot.has_tag_channel()) {
      out.int8_scale_tg = SharedScale(*snapshot.users_tg, *snapshot.items_tg);
      out.users_tg_q = QuantizeChannel(*snapshot.users_tg, out.int8_scale_tg);
      out.items_tg_q =
          QuantizeChannel(*snapshot.items_tg, out.int8_scale_tg, item_perm);
    }
  }
  return out;
}

size_t CompactSnapshot::float32_bytes() const {
  return users.bytes() + items.bytes() + users_tg.bytes() + items_tg.bytes() +
         alpha.size() * sizeof(float);
}

size_t CompactSnapshot::int8_bytes() const {
  return users_q.bytes() + items_q.bytes() + users_tg_q.bytes() +
         items_tg_q.bytes();
}

}  // namespace taxorec
